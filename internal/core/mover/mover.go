// Package mover is the asynchronous data-movement engine behind the
// hierarchical placement engine. The paper separates *deciding* where a
// segment belongs (Algorithm 1, microseconds) from *executing* the move
// (device transfers, milliseconds); this package owns the execution half
// so the decision half never blocks on device time.
//
// A Mover keeps one bounded FIFO work queue per tier — a move queues at
// its destination tier, an eviction at its source — each drained by that
// tier's own worker pool; origin reads are also capped by a global
// PFS-stream semaphore (the paper §IV's engine threads). Beyond that:
//
//   - One record per segment in flight: where its bytes are, where the
//     engine last wanted them, whether a worker has them. The engine
//     commits its residency model at plan time and returns; a newer pass
//     that re-places a segment still in flight only rewrites the wanted
//     tier (Submit), and a worker that lands a hop and finds wanted !=
//     landed goes again. Wanted back where its bytes still are, a segment
//     is dropped unmoved.
//
//   - Room is waited for where it is made (room.go). A fill that finds
//     its destination full keeps its payload in hand — a transfer has
//     already left its source, which is what lets two full tiers swap —
//     and its record is parked, holding no worker, until the destination's
//     next release wakes it. It gives up — a terminal failure the caller
//     reconciles — only when no move this mover knows of has yet to leave
//     that tier, when its file is cancelled, or at Stop: no clock, count
//     or back-off decides. It takes an executor that moves in two halves
//     (Carrier); with a plain Executor a full destination fails at once.
//
//   - Fetch coalescing: adjacent queued PFS fetches of one file become one
//     origin read vectored into per-segment payloads, striped over the PFS
//     streams that are idle; each segment completes as its own tier write
//     returns (lowest index first), and a stream is held for the origin
//     read only.
//
// The outcome of every executed hop is reported through the done callback,
// a segment's hops in order; handling a failure stays with the caller, and
// a failed hop retires its record with whatever was wanted after it.
//
// This file holds the table and its API; worker.go the workers (take,
// coalesce, execute, complete), room.go the wait rule.
package mover

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/invariant"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// ErrCancelled is reported through the done callback for a move whose file
// was invalidated before it landed. A queued fill cancelled, or any queued
// move superseded away, never reports: it had no physical effect.
var ErrCancelled = errors.New("mover: move cancelled")

// Move is one planned data movement. From/To index tiers of the
// hierarchy; -1 means the PFS origin (for From) or eviction (for To).
// Trace is the prefetch's lifecycle trace ID (0 = untraced), carried for
// the done callback to classify the outcome.
type Move struct {
	ID    seg.ID
	Size  int64
	From  int
	To    int
	Trace uint64
}

// Executor performs the physical byte movement (implemented by
// ioclient.Client).
type Executor interface {
	Fetch(id seg.ID, size int64, dst *tiers.Store) error
	Transfer(id seg.ID, src, dst *tiers.Store) error
	Evict(id seg.ID, src *tiers.Store) error
}

// BatchFetcher is the optional extension of Executor that fetches a run of
// consecutive segments with one origin read. fetched is called once, when
// the call's last origin read has returned; landed(i, held, err) reports
// segment first+i, lowest index first, as soon as it is written to dst or
// has failed — one dst had no room for with tiers.ErrNoSpace and its
// payload in held, the mover's to land later. Both run on the calling
// goroutine with no mover or store lock held. coalesced counts the
// segments that shared an origin read. Without it fetches run one by one.
type BatchFetcher interface {
	FetchMany(file string, first int64, sizes []int64, dst *tiers.Store, fetched func(), landed func(i int, held *tiers.Buf, err error)) (coalesced int)
}

// Carrier is the optional extension of Executor that moves in two halves,
// which is what lets a fill wait for room: Take is Transfer's first (the
// payload leaves src for the caller's hand), Land its second, also for a
// payload FetchMany handed back (from nil). Land refuses a full dst at once
// with tiers.ErrNoSpace, the payload still the caller's, w left at dst's
// door. Without it a transfer is one Transfer call and cannot wait.
type Carrier interface {
	Take(id seg.ID, src *tiers.Store) (*tiers.Buf, error)
	Land(id seg.ID, b *tiers.Buf, from, dst *tiers.Store, w tiers.RoomWaiter) error
}

// Config configures a Mover.
type Config struct {
	// Concurrency is the worker count per tier, fastest first. Missing
	// entries default to max(2, 8>>i): fast tiers absorb more writes.
	Concurrency []int
	// QueueDepth bounds each tier's queue; a full queue blocks Submit
	// (backpressure on the placement pass). Default 256.
	QueueDepth int
	// PFSStreams caps concurrent origin reads across all tiers — the
	// paper's engine threads (engine_workers, 4 as shipped). Default 2.
	PFSStreams int
	// Coalesce merges adjacent queued PFS fetches of one file into one
	// origin read (the executor must be a BatchFetcher).
	Coalesce bool
	// MaxCoalesceBytes bounds one coalesced origin read. Default 8 MiB.
	MaxCoalesceBytes int64
	// Telemetry, when non-nil, exports per-tier queue-depth gauges and
	// the coalesced/superseded/cancelled counters.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults(tierCount int) Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.PFSStreams <= 0 {
		c.PFSStreams = 2
	}
	if c.MaxCoalesceBytes <= 0 {
		c.MaxCoalesceBytes = 8 << 20
	}
	conc := make([]int, tierCount)
	for i := range conc {
		conc[i] = max(2, 8>>i)
		if i < len(c.Concurrency) && c.Concurrency[i] > 0 {
			conc[i] = c.Concurrency[i]
		}
	}
	c.Concurrency = conc
	return c
}

// Stats is a snapshot of mover counters and queue state.
type Stats struct {
	Submitted  int64 // fresh moves accepted into the queues
	Executed   int64 // hops completed successfully
	Failed     int64 // hops that terminally failed (reported to done)
	Coalesced  int64 // fetches that shared an origin read with others
	Superseded int64 // in-flight segments re-placed by a newer pass
	Cancelled  int64 // moves dropped before (or undone after) executing
	// Retried is always 0: nothing increments it (a full destination is
	// waited for). benchmark/ reads it; ROADMAP item 4's PR drops it.
	Retried     int64
	QueueDepths []int // queued moves per tier, fastest first
	Outstanding int   // segments in flight (queued + running + waiting)
}

const (
	recQueued  = iota // in queues[qFor(mv)]
	recRunning        // a worker has it
	recWaiting        // payload in hand, parked in waiting[mv.To]
)

// rec is the one record of a segment in flight. mv is the hop under way:
// From is where the bytes are (the tier they left while buf is in hand, -1
// the origin), To where the hop takes them. Guarded by Mover.mu, except
// that a recRunning record's worker owns mv, buf and submitted; Submit then
// writes only want.
type rec struct {
	mv        Move
	want      int        // the tier the engine last asked for; == mv.To unless running
	buf       *tiers.Buf // payload in hand: it left mv.From and has landed nowhere
	state     int
	leaving   bool // counted in Mover.leaving[mv.From]: yet to leave that tier
	onward    bool // counted in Mover.leaving[mv.To]: lands there unwanted, goes again
	cancelled bool
	submitted time.Time     // queue entry time, for the mover_queue span
	taken     time.Time     // when a worker took its group (fetches, while recRunning)
	done      chan struct{} // made by the hop's first WaitFor, closed when the hop ends
}

// Mover executes placement plans asynchronously. Safe for concurrent use:
// Submit, CancelFile, WaitFor, Drain may be called from any goroutine.
type Mover struct {
	cfg     Config
	hier    *tiers.Hierarchy
	exec    Executor
	batch   BatchFetcher // nil when the executor cannot fetch in runs
	carrier Carrier      // nil when the executor cannot move in two halves
	done    func(Move, error)
	// roomGen counts wake-ups (RoomMade): a landing refused and a park with
	// one in between must try again instead (see land).
	roomGen atomic.Uint32

	mu       sync.Mutex
	cond     *sync.Cond // workers wait for queue work
	space    *sync.Cond // Submit waits for queue space
	idle     *sync.Cond // Drain waits for outstanding == 0
	queues   [][]*rec   // per-tier FIFO of queued records
	waiting  [][]*rec   // per destination tier: parked with their payload in hand
	leaving  []int      // per tier: records of this mover yet to leave it
	inflight map[seg.ID]*rec
	free     []*rec // terminal records, reused
	// outstanding == len(inflight) == queued + running + waiting.
	outstanding, running int
	closed               bool
	// fetching counts the fetch groups a worker has taken whose origin
	// read has not returned: the PFS streams spoken for.
	fetching int
	// landTime is the smoothed time from taking a fetch group to its last
	// segment landing: what WaitFor expects of a running fetch.
	landTime time.Duration

	pfsSem chan struct{}
	wg     sync.WaitGroup

	ctr struct {
		submitted, executed, failed   atomic.Int64
		coalesced, superseded, cancel atomic.Int64
	}
}

// New creates a mover over the hierarchy, executing with exec and
// reporting every executed hop through done (called with no mover lock
// held; err is nil on success, ErrCancelled for an invalidated move, else a
// failure the caller reconciles against the stores). Start it next.
func New(cfg Config, hier *tiers.Hierarchy, exec Executor, done func(Move, error)) *Mover {
	n := hier.Len()
	m := &Mover{
		cfg:      cfg.withDefaults(n),
		hier:     hier,
		exec:     exec,
		done:     done,
		queues:   make([][]*rec, n),
		waiting:  make([][]*rec, n),
		leaving:  make([]int, n),
		inflight: make(map[seg.ID]*rec),
	}
	m.batch, _ = exec.(BatchFetcher)
	m.carrier, _ = exec.(Carrier)
	m.cond = sync.NewCond(&m.mu)
	m.space = sync.NewCond(&m.mu)
	m.idle = sync.NewCond(&m.mu)
	m.pfsSem = make(chan struct{}, m.cfg.PFSStreams)
	if reg := m.cfg.Telemetry; reg != nil {
		reg.CounterFunc("hfetch_mover_coalesced_total", "fetches that shared a coalesced origin read", m.ctr.coalesced.Load)
		reg.CounterFunc("hfetch_mover_superseded_total", "in-flight segments re-placed by a newer pass", m.ctr.superseded.Load)
		reg.CounterFunc("hfetch_mover_cancelled_total", "moves cancelled before or undone after executing", m.ctr.cancel.Load)
		reg.GaugeFunc("hfetch_mover_inflight", "segments in flight (queued, running or waiting for room)", func() int64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return int64(m.outstanding)
		})
		for i, st := range hier.Stores() {
			reg.GaugeFunc("hfetch_mover_queue_depth", "queued moves for the tier", func() int64 {
				m.mu.Lock()
				defer m.mu.Unlock()
				return int64(len(m.queues[i]))
			}, "tier", st.Name())
		}
	}
	return m
}

// Start launches the per-tier worker pools.
func (m *Mover) Start() {
	for ti := 0; ti < m.hier.Len(); ti++ {
		for w := 0; w < m.cfg.Concurrency[ti]; w++ {
			m.wg.Add(1)
			go m.worker(ti)
		}
	}
}

// qFor returns the queue a move waits on: its destination tier, or its
// source for an eviction (tier 0 for a fetched payload wanted nowhere).
func qFor(mv Move) int {
	if mv.To >= 0 {
		return mv.To
	}
	return max(mv.From, 0)
}

// Submit accepts one placement pass's merged plan. A move of a segment
// still in flight rewrites its record's wanted tier; fresh moves enqueue,
// blocking only when the destination queue is full. The batch's departures
// are announced before its first move is queued, so a fill waits for the
// room a later move of the batch will make even while Submit is blocked
// between the two.
func (m *Mover) Submit(moves []Move) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	for _, mv := range moves {
		if mv.From >= 0 && mv.From != mv.To {
			m.leaving[mv.From]++
		}
	}
	for _, mv := range moves {
		if mv.From == mv.To {
			continue
		}
		if r, ok := m.inflight[mv.ID]; ok {
			m.retargetLocked(r, mv)
		} else {
			m.admitLocked(mv)
		}
		if mv.From >= 0 { // announced above; its record counts for itself now
			m.leftLocked(mv.From)
		}
	}
	m.checkLocked()
}

// admitLocked queues a fresh move under a record, waiting for queue space.
func (m *Mover) admitLocked(mv Move) {
	for len(m.queues[qFor(mv)]) >= m.cfg.QueueDepth && !m.closed {
		m.space.Wait()
	}
	if m.closed {
		return
	}
	if len(m.free) == 0 {
		m.free = append(m.free, new(rec))
	}
	r := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	r.mv, r.want = mv, mv.To
	m.inflight[mv.ID] = r
	m.outstanding++
	m.ctr.submitted.Add(1)
	m.enqueueLocked(r)
}

// checkLocked asserts the accounting invariants (-tags hfetch_invariants).
func (m *Mover) checkLocked() {
	if !invariant.Enabled {
		return
	}
	invariant.Assert(m.fetching >= 0, "mover fetching %d < 0", m.fetching)
	n := m.running
	for ti := range m.queues {
		n += len(m.queues[ti]) + len(m.waiting[ti])
		invariant.Assert(m.leaving[ti] >= 0, "mover tier %d departures %d < 0", ti, m.leaving[ti])
	}
	invariant.Assert(n == m.outstanding && len(m.inflight) == m.outstanding,
		"mover outstanding %d != queued + running (%d) + waiting = %d, in-flight table %d",
		m.outstanding, m.running, n, len(m.inflight))
}

// retargetLocked points the record of a segment in flight at where a newer
// pass wants it. The planner's From is the engine model's view, not where
// the bytes are, which only the record knows: it keeps its physical origin
// and adopts the newest destination — the engine's plan merge, across runs.
func (m *Mover) retargetLocked(r *rec, mv Move) {
	m.ctr.superseded.Add(1)
	r.want = mv.To
	if r.state == recRunning || r.cancelled {
		m.onwardLocked(r) // the hop stands; its worker compares want with where it ends
		return
	}
	if r.mv.To == mv.To {
		return
	}
	m.unlinkLocked(r)
	m.departedLocked(r)
	if mv.Trace != 0 {
		r.mv.Trace = mv.Trace
	}
	r.mv.To, r.mv.Size = mv.To, mv.Size
	if r.buf == nil && r.mv.From == r.mv.To {
		// Wanted back where its bytes are: nothing to move or report.
		if lc := m.cfg.Telemetry.Lifecycle(); lc != nil && r.mv.From < 0 {
			lc.OnFetchAborted(r.mv.ID.File, r.mv.ID.Index, r.mv.Trace, "superseded")
		}
		m.ctr.cancel.Add(1)
		m.finishLocked(r)
		return
	}
	m.enqueueLocked(r)
}

// unlinkLocked takes a queued or parked record out of its list.
func (m *Mover) unlinkLocked(r *rec) {
	list := &m.queues[qFor(r.mv)]
	if r.state == recWaiting {
		list = &m.waiting[r.mv.To]
	}
	if i := slices.Index(*list, r); i >= 0 {
		*list = slices.Delete(*list, i, i+1)
	}
	m.space.Broadcast()
}

// finishLocked retires a record no worker has: its hop's WaitFor callers
// are released and the record is reused.
func (m *Mover) finishLocked(r *rec) {
	if r.done != nil {
		close(r.done)
	}
	delete(m.inflight, r.mv.ID)
	*r = rec{}
	m.free = append(m.free, r)
	m.outstanding--
	m.checkLocked()
	if m.outstanding == 0 {
		m.idle.Broadcast()
	}
}

// CancelFile drops every in-flight move of the named file (it was written:
// a queued fetch would materialize stale bytes). Queued fills are removed; a
// payload in hand is released and its move reported ErrCancelled, as is an
// executing one's on completion, its effect undone. A queued departure
// still departs, as an eviction reported ErrCancelled: the fills waiting for
// its room must not take the cancel for the last departure and give up
// before the caller's sweep of the stores, or the eviction, has made it.
func (m *Mover) CancelFile(file string) {
	var held []Move
	m.mu.Lock()
	for id, r := range m.inflight {
		if id.File != file {
			continue
		}
		if r.cancelled { // its hop is being undone already; nothing is wanted after it
			r.want = -1
			continue
		}
		m.ctr.cancel.Add(1)
		if r.state == recRunning {
			r.cancelled, r.want = true, -1 // until a later pass asks again
			m.onwardLocked(r)
			continue
		}
		m.unlinkLocked(r)
		if r.leaving { // a queued departure: it departs all the same
			r.cancelled, r.want, r.mv.To = true, -1, -1
			m.queues[r.mv.From] = append(m.queues[r.mv.From], r)
			m.cond.Broadcast()
			continue
		}
		if r.buf != nil {
			r.buf.Release()
			held = append(held, r.mv)
		}
		m.finishLocked(r)
	}
	m.mu.Unlock()
	for _, mv := range held {
		m.done(mv, ErrCancelled)
	}
}

// WaitFor blocks until the hop under way for id (if any, and if the
// segment is wanted *in* a tier) has ended, or until timeout: the server
// read path rides a fetch in flight instead of reading the origin itself.
// A fetch a worker is already executing is worth more patience than a
// queued one — giving up costs the reader an origin read on top of the one
// under way — so it is waited out, but no longer than twice what fetch
// groups have lately taken from take to last landing, counted from when
// this one was taken (never less than timeout; timeout <= 0 still means no
// wait): an executor that hangs costs a bounded stall. waited is how long
// the caller blocked; done is true when the hop ended in time.
func (m *Mover) WaitFor(id seg.ID, timeout time.Duration) (waited time.Duration, done bool) {
	m.mu.Lock()
	r, ok := m.inflight[id]
	if !ok || r.want < 0 {
		m.mu.Unlock()
		return 0, false
	}
	if r.done == nil {
		r.done = make(chan struct{})
	}
	ch := r.done
	start := time.Now()
	if r.state == recRunning && r.mv.From < 0 && timeout > 0 {
		if left := r.taken.Add(2 * m.landTime).Sub(start); left > timeout {
			timeout = left
		}
	}
	m.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return time.Since(start), true
	case <-t.C:
		return time.Since(start), false
	}
}

// Drain blocks until nothing is in flight (Engine.Flush's barrier). It needs
// no deadline: workers never wait for room, and every parked fill is woken.
func (m *Mover) Drain() {
	m.mu.Lock()
	for m.outstanding > 0 {
		m.idle.Wait()
	}
	m.checkLocked()
	m.mu.Unlock()
}

// Stop drains the queues and terminates the workers; parked fills are
// woken to give up. No Submit may follow.
func (m *Mover) Stop() {
	m.mu.Lock()
	m.closed = true
	for ti := range m.waiting {
		m.wakeLocked(ti)
	}
	m.cond.Broadcast()
	m.space.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}

// Stats returns a snapshot of mover counters and queue depths.
func (m *Mover) Stats() Stats {
	m.mu.Lock()
	depths := make([]int, len(m.queues))
	for i := range m.queues {
		depths[i] = len(m.queues[i])
	}
	out := m.outstanding
	m.mu.Unlock()
	return Stats{
		Submitted:   m.ctr.submitted.Load(),
		Executed:    m.ctr.executed.Load(),
		Failed:      m.ctr.failed.Load(),
		Coalesced:   m.ctr.coalesced.Load(),
		Superseded:  m.ctr.superseded.Load(),
		Cancelled:   m.ctr.cancel.Load(),
		QueueDepths: depths,
		Outstanding: out,
	}
}
