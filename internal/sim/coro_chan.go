//go:build !go1.23

package sim

func newCoro(body func(*Coro)) *Coro { return NewChanCoro(body) }
