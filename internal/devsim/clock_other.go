//go:build !linux

package devsim

// kernelTimer has no implementation here: the clock's runtime timer alone
// releases waiters, under the same contract, up to a millisecond late
// while the process idles.
type kernelTimer struct{}

func (k *kernelTimer) start(func()) {}

func (k *kernelTimer) arm(int64) {}
