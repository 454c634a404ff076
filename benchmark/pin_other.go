//go:build !linux

package main

import "errors"

func pinToOneCPU() error { return errors.New("CPU pinning needs Linux") }
