// Package placement implements HFetch's hierarchical data placement
// engine — Algorithm 1 of the paper. The engine consumes segment score
// updates pushed by the auditor, and periodically (by time interval or by
// update count, whichever fires first — the engine "reactiveness")
// recomputes where each updated segment belongs in the hierarchy:
//
//	procedure CalculatePlacement(segment, tier)
//	    if segment.score > tier.min_score then
//	        if segment cannot fit in this tier then
//	            DemoteSegments(segment.score, tier)
//	        place segment in this tier
//	    else CalculatePlacement(segment, tier.next)
//
// Hotter segments end in faster tiers; demoted segments cascade down;
// segments falling below the last tier are evicted (the PFS is the
// origin, so eviction is free). The cache is exclusive: a segment lives
// in exactly one tier. While a tier has free capacity its effective
// min_score is -inf (anything may enter); once full, the minimum
// resident score gates entry, which is the watermark behaviour the
// paper's RAM example describes.
//
// The residency model is a Model, a plain value the Engine keeps under
// its mu. Each of its tiers is ranked: a min-heap over (score, file,
// index) with lazy deletion, so tier.min_score is a peek and
// DemoteSegments pops exactly the victims it needs, coldest first; among
// equal scores the lowest (file, index) goes first. A segment that only
// ties the coldest resident does not displace it — it goes deeper. A
// pass's plan, its merge table and its phase order, which is the batch
// handed to the mover, are scratch the engine keeps between passes: a
// steady-state pass allocates nothing per move.
//
// A pass decides and does not move: it commits the residency model, hands
// the merged plan to the mover pipeline (internal/core/mover) and returns
// without waiting on device time; moveDone records each move's outcome
// when it lands. Flush — one pass, then the mover drained — is the
// barrier after which the stores match the model.
package placement

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/core/auditor"
	amover "hfetch/internal/core/mover"
	"hfetch/internal/core/seg"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// Reactiveness presets from the paper's Figure 3(b).
const (
	// High triggers the engine at every segment score update.
	High = 1
	// Medium (the HFetch default) triggers every 100 score updates.
	Medium = 100
	// Low triggers every 1024 score updates.
	Low = 1024
)

// Config configures an Engine.
type Config struct {
	// Interval is trigger (a): run at least this often. Default 1s.
	Interval time.Duration
	// UpdateThreshold is trigger (b): run after this many score updates.
	// Default Medium (100).
	UpdateThreshold int
	// Workers is the paper §IV's engine threads: the cap on the mover's
	// concurrent PFS fetch streams. Default 2.
	Workers int
	// Telemetry, when non-nil, times placement decisions (the place
	// pipeline stage) and exports the engine counters.
	Telemetry *telemetry.Registry
	// moverConcurrency overrides the mover's per-tier worker count (tests
	// that pin one worker per tier).
	moverConcurrency []int
}

// Stats are cumulative engine counters.
type Stats struct {
	Runs        int64
	Updates     int64
	Placements  int64 // fetches from the PFS
	Promotions  int64
	Demotions   int64
	Evictions   int64
	FailedMoves int64
}

// Mover executes planned data movement (implemented by ioclient.Client).
type Mover = amover.Executor

// Engine is the hierarchical data placement engine. It implements
// auditor.Sink.
type Engine struct {
	cfg  Config
	hier *tiers.Hierarchy
	aud  *auditor.Auditor

	// mover is the persistent pipeline run() submits merged plans to.
	mover *amover.Mover

	mu          sync.Mutex
	pending     map[seg.ID]auditor.Update
	invalidated map[string]struct{}
	updateCount int
	// model is the residency Algorithm 1 plans over.
	model *Model

	// runMu serializes placement passes (the loop and explicit Flush). It
	// guards drained and swept, the maps the pass before this one emptied
	// and the next swaps in for pending and invalidated, and the pass's
	// scratch: its work list, its plan, mergePlan's table, and the
	// phase-ordered plan with its phase ends, which is the batch submitted
	// to the mover.
	runMu   sync.Mutex
	drained map[seg.ID]auditor.Update
	swept   map[string]struct{}
	updates []auditor.Update
	planned []amover.Move
	mergeAt map[seg.ID]int32
	ordered []amover.Move
	ends    []int

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	ctr struct {
		runs, updates, placements, promotions, demotions, evictions, failed atomic.Int64
	}
}

// New creates an engine over the hierarchy whose mover pipeline moves
// bytes with exec, recording segment mappings through aud. The pipeline's
// workers start here, so an engine that is only ever Flushed (tests, the
// benchmark's drive) drains without Start; they idle on a condition
// variable until moves arrive.
func New(cfg Config, hier *tiers.Hierarchy, exec Mover, aud *auditor.Auditor) *Engine {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.UpdateThreshold <= 0 {
		cfg.UpdateThreshold = Medium
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	e := &Engine{
		cfg:         cfg,
		hier:        hier,
		aud:         aud,
		pending:     make(map[seg.ID]auditor.Update),
		drained:     make(map[seg.ID]auditor.Update),
		mergeAt:     make(map[seg.ID]int32),
		ends:        make([]int, hier.Len()+2),
		invalidated: make(map[string]struct{}),
		swept:       make(map[string]struct{}),
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	caps := make([]int64, hier.Len())
	for i := range caps {
		caps[i] = hier.Tier(i).Capacity()
	}
	e.model = NewModel(caps...)
	if reg := cfg.Telemetry; reg != nil {
		reg.CounterFunc("hfetch_engine_runs_total", "placement engine passes", e.ctr.runs.Load)
		reg.CounterFunc("hfetch_engine_updates_total", "score updates received", e.ctr.updates.Load)
		reg.CounterFunc("hfetch_placements_total", "segments fetched from the PFS", e.ctr.placements.Load)
		reg.CounterFunc("hfetch_promotions_total", "segments moved to a faster tier", e.ctr.promotions.Load)
		reg.CounterFunc("hfetch_demotions_total", "segments moved to a slower tier", e.ctr.demotions.Load)
		reg.CounterFunc("hfetch_evictions_total", "segments dropped from the hierarchy", e.ctr.evictions.Load)
		reg.CounterFunc("hfetch_failed_moves_total", "data movements that failed and were reconciled", e.ctr.failed.Load)
		reg.GaugeFunc("hfetch_engine_pending_updates", "score updates awaiting the next pass", func() int64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return int64(len(e.pending))
		})
	}
	e.mover = amover.New(amover.Config{
		Concurrency: cfg.moverConcurrency,
		PFSStreams:  cfg.Workers,
		Telemetry:   cfg.Telemetry,
	}, hier, exec, e.moveDone)
	e.mover.Start()
	return e
}

// Start launches the engine loop.
func (e *Engine) Start() {
	e.wg.Add(1)
	go e.loop()
}

// Stop terminates the engine after a final pass, then drains and shuts
// down the mover pipeline, so every submitted move is terminal when Stop
// returns.
func (e *Engine) Stop() {
	e.once.Do(func() { close(e.stop) })
	e.wg.Wait()
	e.mover.Drain()
	e.mover.Stop()
}

// kickPass wakes the loop for a pass unless one is already due.
func (e *Engine) kickPass() {
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// ScoreBatch implements auditor.Sink. It is the hot path: one
// pending-lock acquisition absorbs a whole drain cycle's score updates,
// so the sharded monitor's workers do not re-serialize on the engine.
// Later updates of the same segment within the batch win. A delivery that
// carries a readahead hint, or an update that climbs (a segment about to
// be read), starts a pass at once — a hint is worth nothing after its
// reader arrives — and that pass takes everything pending with it; other
// updates wait for the threshold or the interval.
//
//hfetch:hotpath
func (e *Engine) ScoreBatch(ups []auditor.Update) {
	if len(ups) == 0 {
		return
	}
	e.ctr.updates.Add(int64(len(ups)))
	fire := false
	e.mu.Lock()
	for _, u := range ups {
		e.pending[u.ID] = u
		fire = fire || u.Ahead || e.model.climbs(u)
	}
	e.updateCount += len(ups)
	fire = fire || e.updateCount >= e.cfg.UpdateThreshold
	e.mu.Unlock()
	if fire {
		e.kickPass()
	}
}

// FileInvalidated implements auditor.Sink: a write to file makes every
// prefetched segment of it stale.
func (e *Engine) FileInvalidated(file string) {
	e.mu.Lock()
	e.invalidated[file] = struct{}{}
	e.mu.Unlock()
	e.kickPass()
}

// Flush runs one placement pass and waits for the mover to drain (used by
// tests and between the phases of an experiment). It is the barrier that
// makes placement deterministic: after Flush the stores match the model.
func (e *Engine) Flush() {
	e.run()
	e.mover.Drain()
}

func (e *Engine) loop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			e.run() // final drain
			return
		case <-ticker.C:
			e.run()
		case <-e.kick:
			e.run()
		}
	}
}

// run drains pending updates and invalidations, plans placement for each
// update (hottest first), and submits the planned moves to the mover.
// Runs are serialized: the engine's residency model is consistent at run
// boundaries.
func (e *Engine) run() {
	e.runMu.Lock()
	defer e.runMu.Unlock()

	e.mu.Lock()
	if len(e.pending) == 0 && len(e.invalidated) == 0 {
		e.mu.Unlock()
		return
	}
	e.pending, e.drained = e.drained, e.pending
	e.invalidated, e.swept = e.swept, e.invalidated
	e.updateCount = 0
	e.mu.Unlock()
	updates := e.updates[:0]
	for _, u := range e.drained {
		updates = append(updates, u)
	}
	clear(e.drained)
	e.updates = updates

	e.ctr.runs.Add(1)
	var decideStart time.Time
	if e.cfg.Telemetry != nil {
		decideStart = time.Now()
	}

	for file := range e.swept {
		e.dropFile(file)
	}

	// Hottest first, so high-score segments claim fast tiers before
	// lower ones are considered.
	slices.SortFunc(updates, func(a, b auditor.Update) int { return cmp.Compare(b.Score, a.Score) })

	plan := e.planned[:0]
	e.mu.Lock()
	for _, u := range updates {
		if _, stale := e.swept[u.ID.File]; stale {
			continue
		}
		e.model.Plan(u, &plan)
	}
	e.model.check()
	e.mu.Unlock()
	clear(e.swept)
	e.planned = plan
	if e.cfg.Telemetry != nil {
		// Decision latency: planning only, data movement is the fetch stage.
		e.cfg.Telemetry.Span(telemetry.StagePlace, "", -1, "", decideStart, time.Since(decideStart))
	}
	e.submit(e.order(e.mergePlan(plan)), decideStart)
	if e.cfg.Telemetry != nil {
		// The decide stage is the whole pass, entry to ready-for-next: it
		// ends at queue submission, so it holds no device time unless a
		// full mover queue pushed back.
		e.cfg.Telemetry.Span(telemetry.StageDecide, "", -1, "", decideStart, time.Since(decideStart))
	}
}

// submit hands a merged, phase-ordered plan to the mover as one
// batch. The mover overlaps the phases; the order only makes every move
// that leaves a tier known to it before the fills of that tier, which wait
// for room exactly while such a departure is outstanding.
func (e *Engine) submit(plan []amover.Move, passStart time.Time) {
	if len(plan) == 0 {
		return
	}
	if lc := e.cfg.Telemetry.Lifecycle(); lc != nil {
		for i := range plan {
			if mv := &plan[i]; mv.From < 0 && mv.To >= 0 {
				// The ledger opens here: every queued prefetch gets a
				// trace ID (minted if the root event was unsampled).
				mv.Trace = lc.OnFetchQueued(mv.ID.File, mv.ID.Index, mv.Trace,
					e.hier.Tier(mv.To).Name(), passStart)
			}
		}
	}
	e.mover.Submit(plan)
}

// moveDone is the mover's terminal-outcome callback: a move's
// bookkeeping (counters, lifecycle ledger, mapping), applied when it
// actually lands. Called from mover workers without mover locks held.
func (e *Engine) moveDone(mv amover.Move, err error) {
	lc := e.cfg.Telemetry.Lifecycle()
	if errors.Is(err, amover.ErrCancelled) {
		// The file was invalidated mid-move; dropFile already cleaned the
		// model and the mapping, and the mover undid any materialized
		// payload.
		if lc != nil && mv.From < 0 && mv.To >= 0 {
			lc.OnFetchAborted(mv.ID.File, mv.ID.Index, mv.Trace, "superseded")
		}
		return
	}
	switch {
	case mv.To < 0: // eviction
		if lc != nil {
			lc.OnEvicted(mv.ID.File, mv.ID.Index)
		}
		if err != nil {
			// Not where the plan had it (a move given up on put it back
			// elsewhere, or dropped it): the stores say where it is now.
			e.reconcile(mv.ID)
			return
		}
		e.ctr.evictions.Add(1)
		e.aud.DeleteMapping(mv.ID)
	case err != nil:
		e.ctr.failed.Add(1)
		if lc != nil && mv.From < 0 {
			lc.OnFetchAborted(mv.ID.File, mv.ID.Index, mv.Trace, "failed")
		}
		e.reconcile(mv.ID)
	case mv.From < 0:
		e.ctr.placements.Add(1)
		// Landing is recorded before the mapping flips so a read that
		// races the flip always finds the landing already accounted.
		if lc != nil {
			lc.OnFetchLanded(mv.ID.File, mv.ID.Index, mv.Trace, e.hier.Tier(mv.To).Name())
		}
		e.aud.SetMapping(mv.ID, e.hier.Tier(mv.To).Name())
	case mv.To < mv.From:
		e.ctr.promotions.Add(1)
		e.aud.SetMapping(mv.ID, e.hier.Tier(mv.To).Name())
	default:
		e.ctr.demotions.Add(1)
		e.aud.SetMapping(mv.ID, e.hier.Tier(mv.To).Name())
	}
}

// mergePlan coalesces, in place, per-segment move chains (a segment can be
// demoted by one update and re-placed by its own later in the same run)
// into a single origin→final move: the mover keeps one wanted tier per
// segment, so only the chain's two ends mean anything to it.
func (e *Engine) mergePlan(plan []amover.Move) []amover.Move {
	if len(plan) <= 1 {
		return plan
	}
	clear(e.mergeAt)
	merged := plan[:0]
	for _, mv := range plan {
		if at, ok := e.mergeAt[mv.ID]; ok {
			merged[at].To = mv.To
			continue
		}
		e.mergeAt[mv.ID] = int32(len(merged))
		merged = append(merged, mv)
	}
	out := merged[:0]
	for _, mv := range merged {
		if mv.From != mv.To { // else the chain returned to its origin
			out = append(out, mv)
		}
	}
	return out
}

// order sorts a merged plan, stably, into its phases — evictions first,
// then tier-to-tier transfers by destination (deepest tier first, so space
// is drained downward before it is claimed), finally fetches from the PFS
// — a counting sort with e.ends as its table. The mover keeps no barrier
// between phases (submit says what the order is for).
func (e *Engine) order(plan []amover.Move) []amover.Move {
	n := e.hier.Len()
	phaseOf := func(mv amover.Move) int {
		switch {
		case mv.To < 0:
			return 0
		case mv.From >= 0:
			return n - mv.To
		}
		return n + 1
	}
	clear(e.ends)
	for _, mv := range plan {
		e.ends[phaseOf(mv)]++
	}
	at := 0
	for p, count := range e.ends {
		e.ends[p], at = at, at+count
	}
	e.ordered = slices.Grow(e.ordered[:0], len(plan))[:len(plan)]
	for _, mv := range plan {
		p := phaseOf(mv)
		e.ordered[e.ends[p]] = mv
		e.ends[p]++
	}
	return e.ordered
}

// dropFile removes every resident segment of file (consistency after a
// write event). The file's in-flight moves are cancelled first, so a
// queued fetch cannot re-materialize stale bytes after the stores are
// swept.
func (e *Engine) dropFile(file string) {
	e.mover.CancelFile(file)
	if lc := e.cfg.Telemetry.Lifecycle(); lc != nil {
		// Cancelled in-flight fetches were already classified wasted via
		// their abort callback; this sweeps the remaining open traces.
		lc.OnInvalidated(file)
	}
	n := e.hier.DeleteFile(file)
	if n > 0 {
		e.ctr.evictions.Add(int64(n))
	}
	e.mu.Lock()
	dropped := e.model.dropFile(file, make([]seg.ID, 0, 32)) // on the stack: one file at the usual grain
	e.mu.Unlock()
	for _, id := range dropped {
		e.aud.DeleteMapping(id)
	}
}

// reconcile realigns the model and the mapping with the actual store
// state after a failed move.
func (e *Engine) reconcile(id seg.ID) {
	actual := e.hier.Locate(id)
	var size int64
	if actual >= 0 {
		size = e.hier.Tier(actual).SizeOf(id)
	}
	e.mu.Lock()
	e.model.reconcile(id, actual, size)
	e.mu.Unlock()
	if actual >= 0 {
		e.aud.SetMapping(id, e.hier.Tier(actual).Name())
	} else {
		e.aud.DeleteMapping(id)
	}
}

// Counters returns a snapshot of engine statistics.
func (e *Engine) Counters() Stats {
	return Stats{
		Runs:        e.ctr.runs.Load(),
		Updates:     e.ctr.updates.Load(),
		Placements:  e.ctr.placements.Load(),
		Promotions:  e.ctr.promotions.Load(),
		Demotions:   e.ctr.demotions.Load(),
		Evictions:   e.ctr.evictions.Load(),
		FailedMoves: e.ctr.failed.Load(),
	}
}

// MoverStats returns a snapshot of the mover's counters and queue depths.
func (e *Engine) MoverStats() amover.Stats { return e.mover.Stats() }

// WaitInflight blocks until an in-flight incoming move of id (if any)
// reaches a terminal state, or until timeout. It returns how long the
// caller actually waited and whether the move completed; (0, false)
// immediately when nothing is in flight. The server read path uses this
// to ride a queued fetch instead of re-reading the bytes from the PFS.
func (e *Engine) WaitInflight(id seg.ID, timeout time.Duration) (time.Duration, bool) {
	return e.mover.WaitFor(id, timeout)
}

// Landing is the mover's smoothed time from taking a fetch group to its
// last landing, in nanoseconds (mover.Mover.Landing).
func (e *Engine) Landing() *atomic.Int64 { return e.mover.Landing() }
