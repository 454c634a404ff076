package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// trialTimeout bounds one child, so a hung simulation fails its trial
// instead of the whole run.
const trialTimeout = 150 * time.Second

// trial is one child process: what it measured about itself, plus what
// the parent measured from outside it.
type trial struct {
	childResult
	ran    bool // the child exited 0 and printed a result
	traced bool
	wallS  float64 // exec to exit, less the pauses for reference slices
	cpuS   float64 // user + system
	rssMB  float64 // peak resident set
	// failures lists every reason the trial failed its correctness gate.
	failures []string
}

// childGOMAXPROCS is 1: every simulated thread handoff is a pair of
// channel operations, and with two Ps each became a wakeup across CPUs.
// On a 2-vCPU VM that made rpc-1000 about 30% slower and its run-to-run
// spread about 40% wider than with one P.
const childGOMAXPROCS = 1

// childEnv is the parent's environment with the Go runtime's tuning
// variables cleared and GOMAXPROCS pinned.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch k, _, _ := strings.Cut(kv, "="); k {
		case "GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS":
			continue
		}
		env = append(env, kv)
	}
	return append(env, fmt.Sprintf("GOMAXPROCS=%d", childGOMAXPROCS))
}

// runTrial runs one trial of workload name in a fresh child process of
// this binary, served by a fresh reference server, and waits for both to
// exit.
func runTrial(exe, name string, o trialOpts) trial {
	t := trial{traced: o.traced}
	ctx, cancel := context.WithTimeout(context.Background(), trialTimeout)
	defer cancel()
	ref, err := startRef(ctx, exe)
	if err != nil {
		t.failures = append(t.failures, fmt.Sprintf("reference server: %v", err))
		return t
	}
	cmd := exec.CommandContext(ctx, exe, append(o.args(name), "-ref")...)
	cmd.Env = childEnv()
	cmd.ExtraFiles = []*os.File{ref.req, ref.resp}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr

	start := time.Now()
	err = cmd.Run()
	t.wallS = time.Since(start).Seconds()
	if rerr := ref.stop(); rerr != nil {
		t.failures = append(t.failures, fmt.Sprintf("reference server: %v", rerr))
	}
	if ru, ok := rusage(cmd); ok {
		t.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		t.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		t.failures = append(t.failures, fmt.Sprintf("child: %v: %s", err, lastLine(stderr.String())))
		return t
	}
	if err := json.Unmarshal([]byte(lastLine(stdout.String())), &t.childResult); err != nil {
		t.failures = append(t.failures, fmt.Sprintf("child result: %v", err))
		return t
	}
	if t.RefS <= 0 {
		t.failures = append(t.failures, "no reference slices")
	}
	t.wallS -= t.PauseS
	t.ran = true
	t.failures = append(t.failures, t.Failures...)
	return t
}

func rusage(cmd *exec.Cmd) (*syscall.Rusage, bool) {
	if cmd.ProcessState == nil {
		return nil, false
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, ok
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// checkFingerprints fails every trial whose fingerprint differs from
// want (expected.json's entry) or, without one, from the first trial's.
func checkFingerprints(ts []trial, want *fingerprint) {
	for i := range ts {
		t := &ts[i]
		if !t.ran {
			continue
		}
		if want == nil {
			first := t.Fingerprint
			want = &first
			continue
		}
		if t.Fingerprint != *want {
			t.failures = append(t.failures, fmt.Sprintf("fingerprint %+v, want %+v", t.Fingerprint, *want))
		}
	}
}
