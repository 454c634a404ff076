//go:build go1.23

package sim

import "iter"

func newCoro(body func(*Coro)) *Coro { return newPullCoro(body) }

// newPullCoro builds a Coro on iter.Pull, whose switches are the
// runtime's coroswitch: a direct handoff between the two goroutines that
// bypasses the scheduler.
func newPullCoro(body func(*Coro)) *Coro {
	c := &Coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		body(c)
	})
	return c
}
