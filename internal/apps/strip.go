package apps

import (
	"amoebasim/internal/orca"
	"amoebasim/internal/proc"
)

// stripBuffers is the boundary-exchange machinery shared by RL and SOR:
// the grid is partitioned into horizontal strips, and after each iteration
// neighbors exchange boundary rows through shared bounded-buffer objects.
// Each buffer is owned by its producer, so the consumer's BufGet is a
// remote guarded operation — it blocks (as a continuation) until the owner
// fills the buffer. This is exactly the pattern for which the paper's
// kernel-space implementation pays an extra context switch per operation.
type stripBuffers struct {
	topOut []orca.Handle // topOut[p]: p's top row, consumed by p-1
	botOut []orca.Handle // botOut[p]: p's bottom row, consumed by p+1

	// topRing[p] and botRing[p] hold the copies p sends through topOut[p]
	// and botOut[p].
	topRing, botRing []rowRing
}

const bufCap = 2

// rowRing is a producer's row copies for one buffer, used round-robin.
// A slot is rewritten by put m only after the consumer has stopped
// reading the row it held, put m-len(slots). The copy for put m is taken
// once put m-1 has returned, so at most bufCap rows are queued: the
// consumer has already issued get m-1-bufCap, and the exchange that
// issued it began after the consumer's last read of the ghost row from
// put m-2-bufCap. bufCap+2 slots are therefore enough.
type rowRing struct {
	slots [bufCap + 2][]float64
	next  int
}

// copyOf copies src into the ring's next slot and returns that slot.
func (r *rowRing) copyOf(src []float64) []float64 {
	row := append(r.slots[r.next][:0], src...)
	r.slots[r.next] = row
	r.next = (r.next + 1) % len(r.slots)
	return row
}

// rowBufType is the paper's bounded buffer: put blocks while full, get
// blocks while empty. The queue keeps each row boxed as put received it,
// and get shifts the queue in place, so neither operation allocates.
func rowBufType() *orca.ObjType {
	return orca.NewType("rowbuf",
		&orca.OpDef{
			Name: "put",
			Guard: func(s orca.State) bool {
				return len(*s.(*[]any)) < bufCap
			},
			Apply: func(t *proc.Thread, s orca.State, args any) (any, int) {
				q := s.(*[]any)
				*q = append(*q, args)
				return nil, 0
			},
		},
		&orca.OpDef{
			Name: "get",
			Guard: func(s orca.State) bool {
				return len(*s.(*[]any)) > 0
			},
			Apply: func(t *proc.Thread, s orca.State, args any) (any, int) {
				q := s.(*[]any)
				row := (*q)[0]
				n := copy(*q, (*q)[1:])
				(*q)[n] = nil
				*q = (*q)[:n]
				return row, len(row.([]float64)) * 4
			},
		},
	)
}

// newStripBuffers declares the neighbor-exchange buffers for p workers.
func newStripBuffers(h *Harness, p int) *stripBuffers {
	sb := &stripBuffers{
		topOut:  make([]orca.Handle, p),
		botOut:  make([]orca.Handle, p),
		topRing: make([]rowRing, p),
		botRing: make([]rowRing, p),
	}
	typ := rowBufType()
	mkbuf := func(name string, owner int) orca.Handle {
		return h.Program.DeclareOwned(name, typ, owner, func() orca.State {
			q := make([]any, 0, bufCap)
			return &q
		})
	}
	for i := 0; i < p; i++ {
		if i > 0 {
			sb.topOut[i] = mkbuf("top", i)
		}
		if i < p-1 {
			sb.botOut[i] = mkbuf("bot", i)
		}
	}
	return sb
}

// exchange sends this worker's boundary rows and collects the neighbors'
// ghost rows for the next iteration. Rows are copied so later local
// mutation cannot leak into a message already sent. The ghost rows stay
// valid until the worker's next exchange.
func (sb *stripBuffers) exchange(rt *orca.Runtime, t *proc.Thread, id, p int,
	top, bot []float64) (ghostTop, ghostBot []float64, err error) {
	cols := len(top)
	if id > 0 {
		row := sb.topRing[id].copyOf(top)
		if _, _, err = rt.Invoke(t, sb.topOut[id], "put", row, cols*4); err != nil {
			return nil, nil, err
		}
	}
	if id < p-1 {
		row := sb.botRing[id].copyOf(bot)
		if _, _, err = rt.Invoke(t, sb.botOut[id], "put", row, cols*4); err != nil {
			return nil, nil, err
		}
	}
	if id > 0 {
		res, _, gerr := rt.Invoke(t, sb.botOut[id-1], "get", nil, 0)
		if gerr != nil {
			return nil, nil, gerr
		}
		var ok bool
		if ghostTop, ok = res.([]float64); !ok {
			return nil, nil, errBadRow
		}
	}
	if id < p-1 {
		res, _, gerr := rt.Invoke(t, sb.topOut[id+1], "get", nil, 0)
		if gerr != nil {
			return nil, nil, gerr
		}
		var ok bool
		if ghostBot, ok = res.([]float64); !ok {
			return nil, nil, errBadRow
		}
	}
	return ghostTop, ghostBot, nil
}
