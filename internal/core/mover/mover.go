// Package mover is the asynchronous data-movement engine behind the
// hierarchical placement engine. The paper separates *deciding* where a
// segment belongs (Algorithm 1, microseconds) from *executing* the move
// (device transfers, milliseconds); this package owns the execution half
// so the decision half never blocks on device time.
//
// A Mover keeps one bounded FIFO work queue per tier — a move queues at
// its destination tier, an eviction at its source — each drained by that
// tier's own worker pool, so a RAM tier that can absorb many concurrent
// Puts is not throttled by a burst-buffer queue, while origin reads are
// additionally capped by a global PFS-stream semaphore (the paper §IV's
// engine threads). Three properties distinguish it from a plain worker
// pool:
//
//   - An in-flight table: at most one queued-or-running move exists per
//     segment. The placement engine commits its intended residency model
//     at plan time and returns; the table is what makes that safe.
//
//   - Supersession: when a newer placement pass re-places a segment whose
//     previous move has not executed yet, the queued move is retargeted
//     in place (origin → newest destination, the cross-run extension of
//     the engine's intra-run plan merging) or cancelled outright when the
//     chain returns to its origin. A move already executing instead gets
//     the newer move chained behind it.
//
//   - Fetch coalescing: adjacent queued PFS fetches for the same file are
//     merged into one origin read vectored into per-segment payloads,
//     paying the PFS latency once per span instead of once per segment. A
//     run is striped over the PFS streams that are idle, each segment
//     completes as its own tier write returns (lowest index first), and a
//     stream is held for the origin read only, not for the tier writes.
//
// Failure handling stays with the caller: every terminal move outcome is
// reported through the done callback, and a destination-full error is
// retried a few times with backoff first (the space-freeing moves that
// justified the plan may simply not have executed yet).
package mover

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
	"hfetch/internal/invariant"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// ErrCancelled is reported through the done callback for a move that was
// invalidated (its file was written) after it started executing. Queued
// moves that are cancelled or superseded away never report at all — they
// had no physical effect.
var ErrCancelled = errors.New("mover: move cancelled")

// Move is one planned data movement. From/To index tiers of the
// hierarchy; -1 means the PFS origin (for From) or eviction (for To).
// Trace is the lifecycle trace ID of the prefetch (0 = untraced); it
// rides along so the terminal callback can classify the outcome.
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

// BatchFetcher is the optional coalescing extension of Executor: one
// origin read for a run of consecutive segments. fetched is called once,
// when the last origin read of the call has returned; landed(i, err)
// reports segment first+i, lowest index first, as soon as that segment is
// written to dst or has failed. Both are called on the calling goroutine
// with no mover or store lock held. coalesced counts the segments that
// shared an origin read with another. When the executor does not
// implement it, fetches execute one by one.
type BatchFetcher interface {
	FetchMany(file string, first int64, sizes []int64, dst *tiers.Store, fetched func(), landed func(i int, err error)) (coalesced int)
}

// Config configures a Mover.
type Config struct {
	// Concurrency is the worker count per tier (aligned with the
	// hierarchy, fastest first). Missing entries default to max(2, 8>>i):
	// fast tiers absorb more concurrent writes than slow ones.
	Concurrency []int
	// QueueDepth bounds each tier's queue; a full queue blocks Submit
	// (backpressure on the placement pass). Default 256.
	QueueDepth int
	// PFSStreams caps concurrent origin reads across all tiers, modeling
	// the engine-thread count of the paper: the placement engine passes
	// its worker count (engine_workers, 4 as shipped). 2 when unset.
	PFSStreams int
	// Coalesce merges adjacent queued PFS fetches of one file into a
	// single origin read when the executor supports it.
	Coalesce bool
	// MaxCoalesceBytes bounds one coalesced origin read. Default 8 MiB.
	MaxCoalesceBytes int64
	// Telemetry, when non-nil, exports per-tier queue-depth gauges and
	// the coalesced/superseded/cancelled/retried counters.
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
		if i < len(c.Concurrency) && c.Concurrency[i] > 0 {
			conc[i] = c.Concurrency[i]
		} else {
			conc[i] = 8 >> i
			if conc[i] < 2 {
				conc[i] = 2
			}
		}
	}
	c.Concurrency = conc
	return c
}

// Stats is a snapshot of mover counters and queue state.
type Stats struct {
	Submitted   int64 // fresh moves accepted into the queues
	Executed    int64 // moves completed successfully
	Failed      int64 // moves that terminally failed (reported to done)
	Coalesced   int64 // fetches that shared an origin read with others
	Superseded  int64 // queued/running moves re-placed by a newer pass
	Cancelled   int64 // moves dropped before (or undone after) executing
	Retried     int64 // destination-full retries
	QueueDepths []int // queued moves per tier, fastest first
	Outstanding int   // moves not yet terminal (queued + running + chained)
}

const (
	opQueued = iota
	opRunning
)

// op is one tracked move. All fields are guarded by Mover.mu except mv
// contents while opRunning (the executing worker owns them).
type op struct {
	mv        Move
	state     int
	cancelled bool
	attempts  int
	submitted time.Time     // queue entry time, for the mover_queue span
	taken     time.Time     // when a worker took its group (fetches, while opRunning)
	next      *op           // superseding move chained behind a running op
	done      chan struct{} // closed at terminal state
}

// maxRetries bounds destination-full retries per move.
const maxRetries = 8

// Mover executes placement plans asynchronously. Safe for concurrent
// use; Submit, CancelFile, WaitFor, Drain may be called from any
// goroutine.
type Mover struct {
	cfg   Config
	hier  *tiers.Hierarchy
	exec  Executor
	batch BatchFetcher // nil when the executor cannot coalesce
	done  func(Move, error)

	mu          sync.Mutex
	cond        *sync.Cond // workers wait for queue work
	space       *sync.Cond // Submit waits for queue space
	idle        *sync.Cond // Drain waits for outstanding == 0
	queues      [][]*op    // per-tier FIFO of queued ops
	inflight    map[seg.ID]*op
	outstanding int
	closed      bool
	// fetching counts the fetch groups a worker has taken whose origin
	// read has not returned: the PFS streams spoken for.
	fetching int
	// landTime is the smoothed time from taking a fetch group to its last
	// segment landing: what WaitFor expects of a running fetch.
	landTime time.Duration

	pfsSem chan struct{}
	wg     sync.WaitGroup

	ctr struct {
		submitted, executed, failed            atomic.Int64
		coalesced, superseded, cancel, retried atomic.Int64
	}
}

// New creates a mover over the hierarchy, executing with exec and
// reporting every terminal move outcome through done (called without any
// mover lock held; err is nil on success, ErrCancelled for an
// invalidated move, anything else is a real failure the caller must
// reconcile). Call Start before submitting.
func New(cfg Config, hier *tiers.Hierarchy, exec Executor, done func(Move, error)) *Mover {
	m := &Mover{
		cfg:      cfg.withDefaults(hier.Len()),
		hier:     hier,
		exec:     exec,
		done:     done,
		queues:   make([][]*op, hier.Len()),
		inflight: make(map[seg.ID]*op),
	}
	if bf, ok := exec.(BatchFetcher); ok && m.cfg.Coalesce {
		m.batch = bf
	}
	m.cond = sync.NewCond(&m.mu)
	m.space = sync.NewCond(&m.mu)
	m.idle = sync.NewCond(&m.mu)
	m.pfsSem = make(chan struct{}, m.cfg.PFSStreams)
	if reg := m.cfg.Telemetry; reg != nil {
		reg.CounterFunc("hfetch_mover_coalesced_total", "fetches that shared a coalesced origin read", m.ctr.coalesced.Load)
		reg.CounterFunc("hfetch_mover_superseded_total", "queued/running moves re-placed by a newer pass", m.ctr.superseded.Load)
		reg.CounterFunc("hfetch_mover_cancelled_total", "moves cancelled before or undone after executing", m.ctr.cancel.Load)
		reg.CounterFunc("hfetch_mover_retried_total", "destination-full move retries", m.ctr.retried.Load)
		reg.GaugeFunc("hfetch_mover_inflight", "moves not yet terminal", func() int64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return int64(m.outstanding)
		})
		for i, st := range hier.Stores() {
			i := i
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
// source for an eviction.
func qFor(mv Move) int {
	if mv.To >= 0 {
		return mv.To
	}
	return mv.From
}

// Submit accepts one placement pass's merged plan, already ordered so
// space-freeing moves precede space-claiming ones. Moves of segments
// with a move still in flight supersede it; fresh moves enqueue,
// blocking only when the destination queue is full.
func (m *Mover) Submit(moves []Move) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mv := range moves {
		if m.closed {
			return
		}
		if mv.From == mv.To {
			continue
		}
		if old, ok := m.inflight[mv.ID]; ok {
			m.supersedeLocked(old, mv)
			continue
		}
		q := qFor(mv)
		for len(m.queues[q]) >= m.cfg.QueueDepth && !m.closed {
			m.space.Wait()
		}
		if m.closed {
			return
		}
		o := &op{mv: mv, submitted: time.Now(), done: make(chan struct{})}
		m.inflight[mv.ID] = o
		m.outstanding++
		m.ctr.submitted.Add(1)
		m.queues[q] = append(m.queues[q], o)
		if invariant.Enabled {
			// The backpressure bound holds on the Submit path (the wait
			// loop above guarantees it); destination-full retries and
			// chained-move promotions may requeue past it by design.
			invariant.Assert(len(m.queues[q]) <= m.cfg.QueueDepth,
				"mover tier %d queue depth %d exceeds bound %d after Submit",
				q, len(m.queues[q]), m.cfg.QueueDepth)
		}
		m.cond.Broadcast()
	}
	m.checkLocked()
}

// checkLocked asserts the queue-accounting invariants under m.mu; a
// no-op unless built with -tags hfetch_invariants.
func (m *Mover) checkLocked() {
	if !invariant.Enabled {
		return
	}
	invariant.Assert(m.outstanding >= 0, "mover outstanding %d < 0", m.outstanding)
	invariant.Assert(m.fetching >= 0, "mover fetching %d < 0", m.fetching)
	queued := 0
	for _, q := range m.queues {
		queued += len(q)
	}
	invariant.Assert(queued <= m.outstanding,
		"mover queued %d exceeds outstanding %d", queued, m.outstanding)
	invariant.Assert(len(m.inflight) <= m.outstanding,
		"mover inflight table %d exceeds outstanding %d", len(m.inflight), m.outstanding)
}

// supersedeLocked folds a newer move for a segment into its in-flight
// predecessor. The planner's From is the engine model's view, which by
// construction equals the predecessor's destination — so retargeting
// keeps the physical origin and adopts the newest destination, exactly
// like the engine's intra-run plan merge, across runs.
func (m *Mover) supersedeLocked(old *op, mv Move) {
	m.ctr.superseded.Add(1)
	if old.state == opQueued {
		if old.next != nil {
			// Requeued by a destination-full retry with the move that was
			// chained behind it while it ran: the newer pass replaces
			// that intent as well.
			m.finishLocked(old.next)
			old.next = nil
			m.ctr.cancel.Add(1)
		}
		m.spliceLocked(old)
		wasFetch := old.mv.From < 0
		trace := old.mv.Trace
		old.mv.To = mv.To
		old.mv.Size = mv.Size
		if mv.Trace != 0 {
			old.mv.Trace = mv.Trace
		}
		if old.mv.From == old.mv.To {
			// The chain returned to its origin: nothing to move.
			delete(m.inflight, old.mv.ID)
			m.finishLocked(old)
			m.ctr.cancel.Add(1)
			// A queued fetch dropped before executing never reports
			// through done; close its lifecycle trace here.
			if wasFetch {
				if lc := m.cfg.Telemetry.Lifecycle(); lc != nil {
					lc.OnFetchAborted(old.mv.ID.File, old.mv.ID.Index, trace, "superseded")
				}
			}
			return
		}
		m.queues[qFor(old.mv)] = append(m.queues[qFor(old.mv)], old)
		m.cond.Broadcast()
		return
	}
	// Executing: chain the newest intent behind it (merging with any
	// already-chained move).
	if old.next != nil {
		old.next.mv.To = mv.To
		old.next.mv.Size = mv.Size
		if old.next.mv.From == old.next.mv.To {
			m.finishLocked(old.next)
			m.ctr.cancel.Add(1)
			old.next = nil
		}
		return
	}
	chained := Move{ID: mv.ID, Size: mv.Size, From: old.mv.To, To: mv.To, Trace: mv.Trace}
	if chained.From == chained.To {
		return // the running move already lands where the new pass wants it
	}
	old.next = &op{mv: chained, done: make(chan struct{})}
	m.outstanding++
}

// spliceLocked removes a queued op from its queue.
func (m *Mover) spliceLocked(o *op) {
	q := qFor(o.mv)
	for i, e := range m.queues[q] {
		if e == o {
			m.queues[q] = append(m.queues[q][:i], m.queues[q][i+1:]...)
			m.space.Broadcast()
			return
		}
	}
}

// finishLocked marks an op terminal.
func (m *Mover) finishLocked(o *op) {
	close(o.done)
	m.outstanding--
	m.checkLocked()
	if m.outstanding == 0 {
		m.idle.Broadcast()
	}
}

// CancelFile drops every in-flight move of the named file (the file was
// written: any queued fetch would materialize stale bytes). Queued moves
// are removed; executing ones are flagged and their effect undone on
// completion.
func (m *Mover) CancelFile(file string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, o := range m.inflight {
		if id.File != file {
			continue
		}
		if o.next != nil {
			m.finishLocked(o.next)
			o.next = nil
			m.ctr.cancel.Add(1)
		}
		if o.state == opQueued {
			m.spliceLocked(o)
			delete(m.inflight, id)
			m.finishLocked(o)
		} else {
			o.cancelled = true
		}
		m.ctr.cancel.Add(1)
	}
}

// WaitFor blocks until the in-flight move of id (if any, and if it is
// bringing the segment *into* a tier) reaches a terminal state, or until
// timeout. A fetch a worker is already executing is worth more patience
// than a queued one — giving up on it costs the reader an origin read of
// its own on top of the one under way — so it is waited for until it
// lands, but no longer than twice what the mover's fetch groups have
// lately taken from being taken to their last landing, counted from when
// this one was taken (and never less than timeout; a timeout <= 0 still
// means no wait): an executor that hangs costs a reader a bounded stall,
// then the PFS serves it. waited is how long the caller actually blocked
// (0 when nothing was in flight); done is true when the move completed in
// time. This is what lets the server read path ride an already-queued
// fetch instead of issuing its own origin read.
func (m *Mover) WaitFor(id seg.ID, timeout time.Duration) (waited time.Duration, done bool) {
	m.mu.Lock()
	o, ok := m.inflight[id]
	if !ok || o.mv.To < 0 {
		m.mu.Unlock()
		return 0, false
	}
	ch := o.done
	start := time.Now()
	if o.state == opRunning && o.mv.From < 0 && timeout > 0 {
		if left := o.taken.Add(2 * m.landTime).Sub(start); left > timeout {
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

// Drain blocks until every submitted move is terminal. Used by
// Engine.Flush for deterministic test/benchmark barriers.
func (m *Mover) Drain() {
	m.mu.Lock()
	for m.outstanding > 0 {
		m.idle.Wait()
	}
	m.mu.Unlock()
}

// Stop drains the queues and terminates the workers. No Submit may
// follow.
func (m *Mover) Stop() {
	m.mu.Lock()
	m.closed = true
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
		Retried:     m.ctr.retried.Load(),
		QueueDepths: depths,
		Outstanding: out,
	}
}

// group is what one worker is executing: a single move, or a run of
// coalesced fetches in index order. A worker owns one group and reuses
// it, callbacks included, so taking and executing allocates nothing.
type group struct {
	m     *Mover
	ops   []*op
	sizes []int64
	taken time.Time // when the ops were taken (fetches only)

	fetched func()
	landed  func(i int, err error)
}

// onFetched gives the group's PFS stream back: its origin read returned.
func (g *group) onFetched() {
	<-g.m.pfsSem
	g.m.mu.Lock()
	g.m.fetching--
	g.m.mu.Unlock()
}

func (g *group) onLanded(i int, err error) { g.m.complete(g.ops[i], err) }

func (m *Mover) worker(ti int) {
	defer m.wg.Done()
	g := &group{m: m}
	g.fetched, g.landed = g.onFetched, g.onLanded
	for {
		m.mu.Lock()
		for len(m.queues[ti]) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queues[ti]) == 0 && m.closed {
			m.mu.Unlock()
			return
		}
		m.takeLocked(ti, g)
		m.space.Broadcast()
		m.mu.Unlock()
		m.execute(g)
	}
}

// takeLocked moves the head of tier ti's queue into g and marks it
// running. For a PFS fetch with coalescing available the group is instead
// a share of the queued run the head belongs to (see shareLocked), which
// may leave the head itself for a later take.
func (m *Mover) takeLocked(ti int, g *group) {
	q := m.queues[ti]
	g.ops = append(g.ops[:0], q[0])
	fetch := q[0].mv.From < 0
	if fetch {
		g.taken = time.Now()
		if m.batch != nil && len(q) > 1 {
			g.ops = m.shareLocked(q, g.ops[:0])
		}
		m.fetching++
	}
	for _, o := range g.ops {
		o.state = opRunning
		if fetch {
			o.taken = g.taken
		}
	}
	if g.ops[0] == q[0] && len(g.ops) == 1 {
		m.queues[ti] = q[1:]
		return
	}
	kept := q[:0]
	for _, o := range q {
		if o.state == opQueued {
			kept = append(kept, o)
		}
	}
	m.queues[ti] = kept
}

// shareLocked picks, into ops, the fetches one worker takes out of queue
// q, whose head is a fetch: of the queued fetches of the head's file whose
// indices are contiguous with it, the lowest-indexed 1/idle, rounded up
// and bounded by MaxCoalesceBytes, in index order — where idle is how many
// PFS streams no taken group has spoken for (at least this worker's). The
// rest of the run stays queued for the other workers, so a long run is
// read over every idle stream at once and lands in reader order.
func (m *Mover) shareLocked(q, ops []*op) []*op {
	head := q[0]
	for _, o := range q {
		if o.mv.From < 0 && o.mv.ID.File == head.mv.ID.File {
			ops = append(ops, o)
		}
	}
	slices.SortFunc(ops, func(a, b *op) int { return cmp.Compare(a.mv.ID.Index, b.mv.ID.Index) })
	lo := slices.Index(ops, head)
	hi := lo + 1
	for lo > 0 && ops[lo-1].mv.ID.Index+1 == ops[lo].mv.ID.Index {
		lo--
	}
	for hi < len(ops) && ops[hi-1].mv.ID.Index+1 == ops[hi].mv.ID.Index {
		hi++
	}
	idle := max(1, m.cfg.PFSStreams-m.fetching)
	n := (hi - lo + idle - 1) / idle
	budget := m.cfg.MaxCoalesceBytes - ops[lo].mv.Size
	for k := 1; k < n; k++ {
		if budget -= ops[lo+k].mv.Size; budget < 0 {
			n = k
		}
	}
	return ops[:copy(ops, ops[lo:lo+n])]
}

// execute runs one group on the calling worker; every op of it is
// completed (or requeued) by the time it returns.
func (m *Mover) execute(g *group) {
	head := g.ops[0]
	if reg := m.cfg.Telemetry; reg != nil && head.attempts == 0 {
		// Queue wait per op, first execution only (retries would double-
		// count the stage in the lifecycle trace).
		now := time.Now()
		for _, o := range g.ops {
			if o.attempts == 0 && !o.submitted.IsZero() {
				reg.Span(telemetry.StageMoverQueue, o.mv.ID.File, o.mv.ID.Index,
					m.hier.Tier(qFor(o.mv)).Name(), o.submitted, now.Sub(o.submitted))
			}
		}
	}
	if head.attempts > 0 {
		// Destination-full retry: give the space-freeing moves that the
		// plan ordered ahead of us a beat to land.
		backoff := 100 * time.Microsecond << uint(head.attempts-1)
		if backoff > 2*time.Millisecond {
			backoff = 2 * time.Millisecond
		}
		// time.Sleep would round every one of these up to a millisecond
		// in an idle process.
		devsim.Sleep(backoff)
	}
	switch {
	case head.mv.To < 0: // eviction
		m.complete(head, m.exec.Evict(head.mv.ID, m.hier.Tier(head.mv.From)))
	case head.mv.From < 0: // PFS fetch (possibly a coalesced group)
		// A batch executor hands the stream back (g.fetched) when its
		// origin read returns: the tier writes that follow contend for
		// the tier, not for the PFS.
		m.pfsSem <- struct{}{}
		if m.batch == nil {
			err := m.exec.Fetch(head.mv.ID, head.mv.Size, m.hier.Tier(head.mv.To))
			g.onFetched()
			m.complete(head, err)
		} else {
			g.sizes = g.sizes[:0]
			for _, o := range g.ops {
				g.sizes = append(g.sizes, o.mv.Size)
			}
			// Each op completes from g.landed as its segment is written.
			co := m.batch.FetchMany(head.mv.ID.File, head.mv.ID.Index, g.sizes, m.hier.Tier(head.mv.To), g.fetched, g.landed)
			m.ctr.coalesced.Add(int64(co))
		}
		d := time.Since(g.taken)
		m.mu.Lock()
		if m.landTime == 0 {
			m.landTime = d
		} else {
			m.landTime += (d - m.landTime) / 8
		}
		m.mu.Unlock()
	default: // tier-to-tier transfer
		m.complete(head, m.exec.Transfer(head.mv.ID, m.hier.Tier(head.mv.From), m.hier.Tier(head.mv.To)))
	}
}

// complete finalizes one executed op: undoes cancelled moves, retries
// destination-full errors, promotes the chained successor, and reports
// the terminal outcome through the done callback (outside the lock).
func (m *Mover) complete(o *op, err error) {
	m.mu.Lock()
	if o.cancelled {
		if err == nil && o.mv.To >= 0 {
			// The move materialized bytes of an invalidated file: drop
			// them (the store charge stays — the device did the work).
			m.hier.Tier(o.mv.To).Delete(o.mv.ID)
		}
		err = ErrCancelled
	}
	if err != nil && !o.cancelled && o.attempts < maxRetries && !m.closed && errors.Is(err, tiers.ErrNoSpace) {
		o.attempts++
		o.state = opQueued
		m.ctr.retried.Add(1)
		m.queues[qFor(o.mv)] = append(m.queues[qFor(o.mv)], o)
		m.cond.Broadcast()
		m.mu.Unlock()
		return
	}
	next := o.next
	o.next = nil
	if m.inflight[o.mv.ID] == o {
		delete(m.inflight, o.mv.ID)
	}
	switch {
	case err == nil:
		m.ctr.executed.Add(1)
	case errors.Is(err, ErrCancelled):
		m.ctr.cancel.Add(1)
	default:
		m.ctr.failed.Add(1)
	}
	var abandoned *op
	if next != nil {
		if err != nil || next.cancelled {
			// The chain assumed this move's destination as its origin;
			// with the move failed (or the file invalidated) that origin
			// is wrong — abandon it and let reconciliation heal the
			// model.
			abandoned = next
			m.ctr.cancel.Add(1)
		} else {
			m.inflight[next.mv.ID] = next
			next.state = opQueued
			next.submitted = time.Now()
			m.queues[qFor(next.mv)] = append(m.queues[qFor(next.mv)], next)
			m.cond.Broadcast()
		}
	}
	m.mu.Unlock()
	// The caller's bookkeeping (mappings, counters, reconciliation) runs
	// before the op turns terminal, so Drain and WaitFor only release
	// once the move's effects are fully visible.
	m.done(o.mv, err)
	m.mu.Lock()
	m.finishLocked(o)
	if abandoned != nil {
		m.finishLocked(abandoned)
	}
	m.mu.Unlock()
}
