package events

import (
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/telemetry"
)

// Queue is one ring of the hardware monitor's event queue (see
// ShardedQueue): a bounded MPMC ring guarded by a mutex with condition
// variables. When full, the posting policy decides between blocking the
// producer (default, provides backpressure like a saturated kernel queue)
// and dropping the event (counted, mirroring inotify's IN_Q_OVERFLOW).
type Queue struct {
	mu      sync.Mutex
	notFull *sync.Cond
	notEmpt *sync.Cond
	buf     []Event
	head    int
	n       int
	closed  bool
	drop    bool

	// prodWait counts producers blocked in Post (guarded by mu); it
	// bounds how many of them a drained batch wakes.
	prodWait int

	posted  atomic.Int64
	dropped atomic.Int64

	// tele, when set, times each event's stay in the queue (the
	// queue_wait pipeline stage); times holds per-slot enqueue stamps.
	tele  *telemetry.Registry
	times []int64
}

// NewQueue creates a queue with the given capacity (minimum 1). If drop
// is true, Post discards events when the queue is full instead of
// blocking.
func NewQueue(capacity int, drop bool) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{buf: make([]Event, capacity), drop: drop}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpt = sync.NewCond(&q.mu)
	return q
}

// AttachTelemetry times sampled events' wait between Post and dequeue as
// the queue_wait pipeline stage (see Registry.TimeSample). It registers no
// metric family: ShardedQueue.SetTelemetry exports the totals once for all
// its rings. Call before traffic; a nil registry is ignored.
func (q *Queue) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	q.mu.Lock()
	q.tele = reg
	if q.times == nil {
		q.times = make([]int64, len(q.buf))
	}
	q.mu.Unlock()
}

// Post enqueues an event. It reports false when the event was dropped
// (drop policy and queue full) or the queue is closed.
func (q *Queue) Post(ev Event) bool {
	return q.postRef(&ev)
}

// postRef is Post without the value copy at the call boundary; the
// sharded router uses it so an event is copied once into the ring, not
// once per call layer. ev is only read, never retained.
//
//hfetch:hotpath
func (q *Queue) postRef(ev *Event) bool {
	q.mu.Lock()
	for q.n == len(q.buf) && !q.closed && !q.drop {
		q.prodWait++
		q.notFull.Wait()
		q.prodWait--
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.n == len(q.buf) { // drop policy
		q.mu.Unlock()
		q.dropped.Add(1)
		return false
	}
	slot := (q.head + q.n) % len(q.buf)
	q.buf[slot] = *ev
	if q.times != nil {
		var stamp int64
		if q.tele.TimeSample() {
			stamp = time.Now().UnixNano()
		}
		q.times[slot] = stamp
	}
	q.n++
	q.notEmpt.Signal()
	q.mu.Unlock()
	q.posted.Add(1)
	return true
}

// takeStamp clears and returns the enqueue stamp of slot; called with
// q.mu held. Zero means telemetry is off or the slot predates it.
func (q *Queue) takeStamp(slot int) int64 {
	if q.times == nil {
		return 0
	}
	enq := q.times[slot]
	q.times[slot] = 0
	return enq
}

// spanWait records the queue_wait span outside the queue lock.
//
//hfetch:hotpath
func (q *Queue) spanWait(ev Event, enq int64) {
	if enq == 0 {
		return
	}
	start := time.Unix(0, enq)
	//lint:allow hotpath enq is nonzero only for posts that passed TimeSample; Since completes that sampled span
	q.tele.Span(telemetry.StageQueueWait, ev.File, -1, ev.Tier, start, time.Since(start))
}

// Take dequeues one event, blocking until one is available or the queue
// is closed and drained. ok is false only on close-and-drained.
//
//hfetch:hotpath
func (q *Queue) Take() (ev Event, ok bool) {
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.notEmpt.Wait()
	}
	if q.n == 0 {
		q.mu.Unlock()
		return Event{}, false
	}
	ev = q.buf[q.head]
	enq := q.takeStamp(q.head)
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	q.notFull.Signal()
	q.mu.Unlock()
	q.spanWait(ev, enq)
	return ev, true
}

// TakeBatch dequeues up to max events in one lock acquisition, blocking
// until at least one is available or the queue is closed and drained.
//
//hfetch:hotpath
func (q *Queue) TakeBatch(dst []Event) (n int, ok bool) {
	if len(dst) == 0 {
		return 0, true
	}
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.notEmpt.Wait()
	}
	if q.n == 0 {
		q.mu.Unlock()
		return 0, false
	}
	var stamps []int64
	if q.times != nil {
		stamps = make([]int64, 0, len(dst))
	}
	for n < len(dst) && q.n > 0 {
		dst[n] = q.buf[q.head]
		if stamps != nil {
			stamps = append(stamps, q.takeStamp(q.head))
		}
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		n++
	}
	// Wake min(freed slots, blocked producers), not the whole herd: a
	// ring can have thousands of blocked producers, and all but n of them
	// would find it full again. Each admitted producer frees nothing, so no
	// wake chain is needed beyond n, whichever drainer freed the slots.
	// When every waiter gets a slot, one Broadcast beats n runtime calls.
	if wake := q.prodWait; wake > 0 {
		if wake <= n {
			q.notFull.Broadcast()
		} else {
			for i := 0; i < n; i++ {
				q.notFull.Signal()
			}
		}
	}
	q.mu.Unlock()
	for i, enq := range stamps {
		q.spanWait(dst[i], enq)
	}
	return n, true
}

// Close marks the queue closed. Pending events can still be drained;
// blocked producers and consumers are released.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpt.Broadcast()
	q.mu.Unlock()
}

// Len returns the number of queued events.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Stats returns the cumulative posted and dropped counts.
func (q *Queue) Stats() (posted, dropped int64) {
	return q.posted.Load(), q.dropped.Load()
}
