package main

// The reference: a fixed slice of pure-Go work that no change to the
// simulator can move, timed between the steps of every simulation run.
//
// On a shared host the simulator's speed drifts by 10-25% within seconds,
// and the 1000-proc workloads, whose heaps hold about 1M route-cache
// entries, move most. Reference readings taken before and after a trial
// track that poorly; slices taken between the steps of its run, on the
// same CPU, track it closely (README.md has the measurements). So a
// trial's child pauses after each step of its run, a reference server in
// a process of its own runs one slice and reports its time, and the
// end-to-end times are reported in multiples of the mean slice time. The
// server's heap, GC and CPU time never show in the child's metrics.
//
// Protocol: the parent starts the server ("ref" subcommand), which builds
// its tables and writes one byte when ready. The parent then hands the
// trial child the request pipe's write end as file descriptor 3 and the
// reply pipe's read end as 4. For each byte the child writes, the server
// runs one slice and writes the slice's nanoseconds as 8 little-endian
// bytes. The server exits when the request pipe closes.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

const (
	// refMaps route-cache-like maps of refMaps entries each, and one map
	// of refMaps² entries: about 100 MiB, like rpc-1000's route caches.
	refMaps = 1000
	// refSliceLookups is one slice's work: as many lookups in the large
	// map and in random small ones. A slice takes about 8 ms.
	refSliceLookups = 32768
)

type refTables struct {
	big   map[uint64]uint64
	small []map[uint64]uint32
	x     uint64 // xorshift64 state
}

func newRefTables() *refTables {
	t := &refTables{big: make(map[uint64]uint64, refMaps*refMaps), small: make([]map[uint64]uint32, refMaps), x: 1}
	for i := uint64(0); i < refMaps*refMaps; i++ {
		t.big[i*0x9e3779b97f4a7c15] = i
	}
	for i := range t.small {
		m := make(map[uint64]uint32, refMaps)
		for j := uint64(0); j < refMaps; j++ {
			m[j*0x9e3779b97f4a7c15] = uint32(j)
		}
		t.small[i] = m
	}
	return t
}

// slice does one slice of reference work.
func (t *refTables) slice() uint64 {
	var sum uint64
	for i := 0; i < refSliceLookups; i++ {
		t.x ^= t.x << 13
		t.x ^= t.x >> 7
		t.x ^= t.x << 17
		v := t.x
		sum += t.big[(v%(refMaps*refMaps))*0x9e3779b97f4a7c15]
		sum += uint64(t.small[(v>>40)%refMaps][((v>>20)%refMaps)*0x9e3779b97f4a7c15])
	}
	return sum
}

// refSink keeps the slices' results live.
var refSink uint64

// refMain is the reference server.
func refMain(stdin io.Reader, stdout io.Writer, stderr io.Writer) int {
	t := newRefTables()
	if _, err := stdout.Write([]byte{1}); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var req [1]byte
	var reply [8]byte
	for {
		if _, err := io.ReadFull(stdin, req[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return 0
			}
			fmt.Fprintln(stderr, err)
			return 1
		}
		start := time.Now()
		refSink += t.slice()
		binary.LittleEndian.PutUint64(reply[:], uint64(time.Since(start)))
		if _, err := stdout.Write(reply[:]); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
}

// refServer is a running reference server, seen from the parent. req and
// resp are the pipe ends the trial child uses.
type refServer struct {
	cmd       *exec.Cmd
	req, resp *os.File
}

// startRef starts a reference server and waits until it is ready.
func startRef(ctx context.Context, exe string) (*refServer, error) {
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	respR, respW, err := os.Pipe()
	if err != nil {
		reqR.Close()
		reqW.Close()
		return nil, err
	}
	s := &refServer{cmd: exec.CommandContext(ctx, exe, "ref"), req: reqW, resp: respR}
	s.cmd.Env = childEnv()
	s.cmd.Stdin, s.cmd.Stdout, s.cmd.Stderr = reqR, respW, os.Stderr
	err = s.cmd.Start()
	reqR.Close()
	respW.Close()
	if err != nil {
		reqW.Close()
		respR.Close()
		return nil, err
	}
	var ready [1]byte
	if _, err := io.ReadFull(respR, ready[:]); err != nil {
		return nil, errors.Join(fmt.Errorf("reference server: %w", err), s.stop())
	}
	return s, nil
}

// stop closes the parent's pipe ends, which ends the server once the
// trial child has exited, and waits for it.
func (s *refServer) stop() error {
	s.req.Close()
	err := s.cmd.Wait()
	s.resp.Close()
	return err
}

// refClient is the trial child's end of the protocol.
type refClient struct {
	req, resp *os.File
	buf       [8]byte
	n         int
	sliceS    float64 // the server's slice times, summed
	pauseS    float64 // time spent waiting for slices, summed
}

// slice has the server run one slice and records its time.
func (c *refClient) slice() error {
	start := time.Now()
	c.buf[0] = 0
	if _, err := c.req.Write(c.buf[:1]); err != nil {
		return err
	}
	if _, err := io.ReadFull(c.resp, c.buf[:]); err != nil {
		return err
	}
	c.pauseS += time.Since(start).Seconds()
	c.sliceS += time.Duration(binary.LittleEndian.Uint64(c.buf[:])).Seconds()
	c.n++
	return nil
}
