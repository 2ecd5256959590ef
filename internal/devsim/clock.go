package devsim

import (
	"container/heap"
	"sync"
	"time"
)

// epoch anchors the package's monotonic nanosecond readings.
var epoch = time.Now()

// mono returns monotonic nanoseconds since epoch.
func mono() int64 { return int64(time.Since(epoch)) }

// waiter is one caller parked in sleepUntil.
type waiter struct {
	deadline int64         // mono() value the caller waits for
	released int64         // mono() value at which the clock let it go
	wake     chan struct{} // capacity 1: the clock's hand-off, sent once per wait
}

// waiterHeap orders parked waiters by deadline, earliest first.
type waiterHeap []*waiter

func (h waiterHeap) Len() int           { return len(h) }
func (h waiterHeap) Less(i, j int) bool { return h[i].deadline < h[j].deadline }
func (h waiterHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)        { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old) - 1
	w := old[n]
	old[n] = nil
	*h = old[:n]
	return w
}

// clock releases parked waiters at their deadlines. Two one-shot timers
// are kept armed for the earliest of them, and whichever fires first calls
// tick (the package doc says why there are two). A waiter leaves the heap
// once, under mu, so a hand-off is never duplicated and neither timer
// leaves anything behind that the next wait would have to drain.
type clock struct {
	mu      sync.Mutex
	waiters waiterHeap

	start   sync.Once
	runtime *time.Timer // exact while the processors are busy
	kernel  kernelTimer // exact while the process idles
}

// theClock is process-wide: callers of every device wait on one heap, so
// that one kernel timer and one goroutine serve them all.
var theClock clock

var waiterPool = sync.Pool{New: func() any { return &waiter{wake: make(chan struct{}, 1)} }}

// sleepUntil parks the caller until mono() reaches deadline and returns
// the time at which the clock released it. A parked caller burns no CPU,
// and a wait allocates nothing once the pool is warm.
func (c *clock) sleepUntil(deadline int64) (released int64) {
	c.start.Do(func() {
		c.runtime = time.AfterFunc(time.Hour, c.tick)
		c.runtime.Stop()
		c.kernel.start(c.tick)
	})
	w := waiterPool.Get().(*waiter)
	w.deadline = deadline
	c.mu.Lock()
	heap.Push(&c.waiters, w)
	if c.waiters[0] == w {
		c.armLocked(deadline - mono())
	}
	c.mu.Unlock()
	<-w.wake
	released = w.released
	waiterPool.Put(w)
	return released
}

// armLocked sets both timers to call tick d nanoseconds from now.
func (c *clock) armLocked(d int64) {
	c.runtime.Reset(time.Duration(d))
	c.kernel.arm(d)
}

// tick releases every waiter whose deadline has passed and arms the timers
// for the earliest one left.
func (c *clock) tick() {
	c.mu.Lock()
	now := mono()
	for len(c.waiters) > 0 && c.waiters[0].deadline <= now {
		w := heap.Pop(&c.waiters).(*waiter)
		w.released = now
		w.wake <- struct{}{}
	}
	if len(c.waiters) > 0 {
		c.armLocked(c.waiters[0].deadline - now)
	} else {
		// Spares an idle process the wake-up; the kernel timer is spent.
		c.runtime.Stop()
	}
	c.mu.Unlock()
}

// Sleep blocks the caller for d on the clock Device.Access waits on: it
// returns within tens of microseconds after d whether the process is idle
// or busy, where the standard library's sleep rounds a sub-millisecond d
// up to a whole millisecond in an idle process.
func Sleep(d time.Duration) {
	if d > 0 {
		theClock.sleepUntil(mono() + int64(d))
	}
}
