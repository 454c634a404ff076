//go:build !go1.23

package proc

// pullCoroAllocs budgets the first dispatch of a thread on NewCoro, which
// before Go 1.23 is NewChanCoro.
const pullCoroAllocs = chanCoroAllocs
