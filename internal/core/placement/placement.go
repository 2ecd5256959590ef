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
// Each tier of the residency model is ranked: a min-heap over (score,
// file, index) with lazy deletion, so tier.min_score is a peek and
// DemoteSegments pops exactly the victims it needs, coldest first; among
// equal scores the lowest (file, index) goes first. A segment that only
// ties the coldest resident does not displace it — it goes deeper. A
// pass's plan, its merge table, its phase order and the batch handed to
// the mover are scratch the engine keeps between passes: a steady-state
// pass allocates nothing per move.
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
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/core/auditor"
	amover "hfetch/internal/core/mover"
	"hfetch/internal/core/seg"
	"hfetch/internal/invariant"
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

// Policy selects the placement algorithm. Score is Algorithm 1 of the
// paper; Random and RoundRobin are the "sub-optimal, quicker to
// calculate" alternatives §IV-A discusses, kept for ablation.
type Policy int

// Placement policies.
const (
	// PolicyScore maps the score spectrum onto the tiers (Algorithm 1).
	PolicyScore Policy = iota
	// PolicyRandom places each updated segment in a random tier with
	// room (no demotions).
	PolicyRandom
	// PolicyRoundRobin cycles the tiers (no demotions).
	PolicyRoundRobin
)

// Config configures an Engine.
type Config struct {
	// Policy selects the placement algorithm (default PolicyScore).
	Policy Policy
	// Interval is trigger (a): run at least this often. Default 1s.
	Interval time.Duration
	// UpdateThreshold is trigger (b): run after this many score updates.
	// Default Medium (100).
	UpdateThreshold int
	// Workers is the paper §IV's engine threads: the cap on the mover's
	// concurrent PFS fetch streams. Default 2.
	Workers int
	// MoverConcurrency is the mover's per-tier worker count, fastest tier
	// first. Missing or non-positive entries use the mover default
	// (max(2, 8>>tier)).
	MoverConcurrency []int
	// MoverQueueDepth bounds each per-tier mover queue; a full queue
	// applies backpressure to the placement pass. Default 256.
	MoverQueueDepth int
	// FetchCoalesce lets the mover merge adjacent queued PFS fetches of
	// one file into a single origin read.
	FetchCoalesce bool
	// MinScore is the global admission floor: segments scoring below it
	// are never prefetched. Default 0 (admit anything with score > 0).
	MinScore float64
	// Hysteresis damps churn: a resident segment whose score moved by
	// less than this relative fraction keeps its tier instead of being
	// re-placed (and possibly swapped with an equal-scored neighbour).
	// Default 0.2; negative disables damping.
	Hysteresis float64
	// Telemetry, when non-nil, times placement decisions (the place
	// pipeline stage) and exports the engine counters.
	Telemetry *telemetry.Registry
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
	rrNext      uint64

	// Engine's model of tier residency: per tier, segment -> (score, size),
	// and rank, the tier's score index: a min-heap in colder's order with
	// lazy deletion — an item stands for a resident only while the resident
	// still has the item's score — compacted on the push side (setResident).
	resident []map[seg.ID]entry
	used     []int64
	rank     [][]ranked

	// runMu serializes placement passes (the loop and explicit Flush). It
	// guards drained, the map the pass before this one emptied and the
	// next swaps in for pending, and the pass's scratch: its work list, its
	// plan, mergePlan's table, the phase-ordered plan with its phase ends,
	// and the batch submitted to the mover.
	runMu   sync.Mutex
	drained map[seg.ID]auditor.Update
	updates []auditor.Update
	planned []move
	mergeAt map[seg.ID]int32
	ordered []move
	ends    []int
	batch   []amover.Move

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	ctr struct {
		runs, updates, placements, promotions, demotions, evictions, failed atomic.Int64
	}
}

type entry struct {
	score float64
	size  int64
}

// ranked is one item of a tier's score index.
type ranked struct {
	score float64
	id    seg.ID
}

// colder is the index order, and with it the one tie rule of demotion:
// lowest score first, equal scores by file name, then by segment index.
func colder(a, b ranked) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	if a.id.File != b.id.File {
		return a.id.File < b.id.File
	}
	return a.id.Index < b.id.Index
}

// move is one planned data movement. from/to index tiers; -1 means the
// PFS (for from) or eviction (for to). trace carries the lifecycle trace
// ID of the score update that caused the move (meaningful for fetches).
type move struct {
	id    seg.ID
	size  int64
	from  int
	to    int
	trace uint64
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
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = 0.2
	}
	if cfg.Hysteresis < 0 {
		cfg.Hysteresis = 0
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
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	e.resident = make([]map[seg.ID]entry, hier.Len())
	e.used = make([]int64, hier.Len())
	e.rank = make([][]ranked, hier.Len())
	for i := range e.resident {
		e.resident[i] = make(map[seg.ID]entry)
	}
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
		Concurrency: cfg.MoverConcurrency,
		QueueDepth:  cfg.MoverQueueDepth,
		PFSStreams:  cfg.Workers,
		Coalesce:    cfg.FetchCoalesce,
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

// ScoreUpdated implements auditor.Sink. It is the hot path: a map insert
// and, past the threshold or for a readahead hint, a non-blocking kick.
//
//hfetch:hotpath
func (e *Engine) ScoreUpdated(u auditor.Update) {
	e.ctr.updates.Add(1)
	e.mu.Lock()
	e.pending[u.ID] = u
	e.updateCount++
	fire := u.Ahead || e.updateCount >= e.cfg.UpdateThreshold
	e.mu.Unlock()
	if fire {
		e.kickPass()
	}
}

// kickPass wakes the loop for a pass unless one is already due.
func (e *Engine) kickPass() {
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// ScoreBatch implements auditor.BatchSink: one pending-lock acquisition
// absorbs a whole drain cycle's score updates, so the sharded monitor's
// workers do not re-serialize on the engine. Later updates of the same
// segment within the batch win, exactly as they would arriving one by
// one. A delivery that carries a readahead hint starts a pass at once —
// a hint is worth nothing after its reader arrives — and that pass takes
// everything pending with it; other updates wait for the threshold or
// the interval.
//
//hfetch:hotpath
func (e *Engine) ScoreBatch(ups []auditor.Update) {
	if len(ups) == 0 {
		return
	}
	e.ctr.updates.Add(int64(len(ups)))
	ahead := false
	e.mu.Lock()
	for _, u := range ups {
		e.pending[u.ID] = u
		ahead = ahead || u.Ahead
	}
	e.updateCount += len(ups)
	fire := ahead || e.updateCount >= e.cfg.UpdateThreshold
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
	e.updateCount = 0
	var inval map[string]struct{}
	if len(e.invalidated) > 0 {
		inval = e.invalidated
		e.invalidated = make(map[string]struct{})
	}
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

	for file := range inval {
		e.dropFile(file)
	}

	// Hottest first, so high-score segments claim fast tiers before
	// lower ones are considered.
	slices.SortFunc(updates, func(a, b auditor.Update) int { return cmp.Compare(b.Score, a.Score) })

	plan := e.planned[:0]
	e.mu.Lock()
	for _, u := range updates {
		if _, stale := inval[u.ID.File]; stale {
			continue
		}
		e.plan(u, &plan)
	}
	e.checkModelLocked()
	e.mu.Unlock()
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
func (e *Engine) submit(plan []move, passStart time.Time) {
	if len(plan) == 0 {
		return
	}
	lc := e.cfg.Telemetry.Lifecycle()
	batch := e.batch[:0]
	for _, mv := range plan {
		tr := mv.trace
		if lc != nil && mv.from < 0 && mv.to >= 0 {
			// The ledger opens here: every queued prefetch gets a
			// trace ID (minted if the root event was unsampled).
			tr = lc.OnFetchQueued(mv.id.File, mv.id.Index, mv.trace,
				e.hier.Tier(mv.to).Name(), passStart)
		}
		batch = append(batch, amover.Move{ID: mv.id, Size: mv.size, From: mv.from, To: mv.to, Trace: tr})
	}
	e.batch = batch
	e.mover.Submit(batch)
}

// moveDone is the mover's terminal-outcome callback: a move's
// bookkeeping (counters, lifecycle ledger, mapping), applied when it
// actually lands. Called from mover workers without mover locks held.
func (e *Engine) moveDone(mv amover.Move, err error) {
	m := move{id: mv.ID, size: mv.Size, from: mv.From, to: mv.To, trace: mv.Trace}
	lc := e.cfg.Telemetry.Lifecycle()
	if errors.Is(err, amover.ErrCancelled) {
		// The file was invalidated mid-move; dropFile already cleaned the
		// model and the mapping, and the mover undid any materialized
		// payload.
		if lc != nil && m.from < 0 && m.to >= 0 {
			lc.OnFetchAborted(m.id.File, m.id.Index, m.trace, "superseded")
		}
		return
	}
	switch {
	case m.to < 0: // eviction
		if lc != nil {
			lc.OnEvicted(m.id.File, m.id.Index)
		}
		if err != nil {
			// Not where the plan had it (a move given up on put it back
			// elsewhere, or dropped it): the stores say where it is now.
			e.reconcile(m)
			return
		}
		e.ctr.evictions.Add(1)
		e.aud.DeleteMapping(m.id)
	case err != nil:
		e.ctr.failed.Add(1)
		if lc != nil && m.from < 0 {
			lc.OnFetchAborted(m.id.File, m.id.Index, m.trace, "failed")
		}
		e.reconcile(m)
	case m.from < 0:
		e.ctr.placements.Add(1)
		// Landing is recorded before the mapping flips so a read that
		// races the flip always finds the landing already accounted.
		if lc != nil {
			lc.OnFetchLanded(m.id.File, m.id.Index, m.trace, e.hier.Tier(m.to).Name())
		}
		e.aud.SetMapping(m.id, e.hier.Tier(m.to).Name())
	case m.to < m.from:
		e.ctr.promotions.Add(1)
		e.aud.SetMapping(m.id, e.hier.Tier(m.to).Name())
	default:
		e.ctr.demotions.Add(1)
		e.aud.SetMapping(m.id, e.hier.Tier(m.to).Name())
	}
}

// mergePlan coalesces, in place, per-segment move chains (a segment can be
// demoted by one update and re-placed by its own later in the same run)
// into a single origin→final move: the mover keeps one wanted tier per
// segment, so only the chain's two ends mean anything to it.
func (e *Engine) mergePlan(plan []move) []move {
	if len(plan) <= 1 {
		return plan
	}
	clear(e.mergeAt)
	merged := plan[:0]
	for _, mv := range plan {
		if at, ok := e.mergeAt[mv.id]; ok {
			merged[at].to = mv.to
			continue
		}
		e.mergeAt[mv.id] = int32(len(merged))
		merged = append(merged, mv)
	}
	out := merged[:0]
	for _, mv := range merged {
		if mv.from != mv.to { // else the chain returned to its origin
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
func (e *Engine) order(plan []move) []move {
	n := e.hier.Len()
	phaseOf := func(mv move) int {
		switch {
		case mv.to < 0:
			return 0
		case mv.from >= 0:
			return n - mv.to
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
	var dropped []seg.ID
	e.mu.Lock()
	for ti := range e.resident {
		for id := range e.resident[ti] {
			if id.File == file {
				e.dropResident(ti, id)
				dropped = append(dropped, id)
			}
		}
	}
	if invariant.Enabled {
		for ti := range e.resident {
			for id := range e.resident[ti] {
				invariant.Assert(id.File != file,
					"dropFile %q left segment %v resident in tier %d", file, id, ti)
			}
		}
		e.checkModelLocked()
	}
	e.mu.Unlock()
	for _, id := range dropped {
		e.aud.DeleteMapping(id)
	}
}

// checkModelLocked asserts the residency model's accounting under e.mu:
// per-tier used bytes are non-negative and equal the sum of resident
// segment sizes. A no-op unless built with -tags hfetch_invariants.
func (e *Engine) checkModelLocked() {
	if !invariant.Enabled {
		return
	}
	for ti := range e.resident {
		invariant.Assert(e.used[ti] >= 0, "tier %d modeled usage %d < 0", ti, e.used[ti])
		var sum int64
		for _, ent := range e.resident[ti] {
			sum += ent.size
		}
		invariant.Assert(sum == e.used[ti],
			"tier %d modeled usage %d != sum of resident sizes %d", ti, e.used[ti], sum)
		h := e.rank[ti]
		for i := 1; i < len(h); i++ {
			invariant.Assert(!colder(h[i], h[(i-1)/2]), "tier %d index out of heap order at %d", ti, i)
		}
	}
}

// setResident puts id in tier ti's model with ent, or updates it in place,
// and ranks it. The index is compacted on this side, not when it is
// popped: in-place score updates of a tier that is never full only push.
func (e *Engine) setResident(ti int, id seg.ID, ent entry) {
	old, had := e.resident[ti][id]
	e.resident[ti][id] = ent
	e.used[ti] += ent.size - old.size
	if had && old.score == ent.score {
		return // the item it was ranked by still stands
	}
	h := append(e.rank[ti], ranked{ent.score, id})
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !colder(h[i], h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	e.rank[ti] = h
	e.trimIndex(ti)
}

// dropResident takes id out of tier ti's model; its index items go stale.
func (e *Engine) dropResident(ti int, id seg.ID) {
	e.used[ti] -= e.resident[ti][id].size
	delete(e.resident[ti], id)
	e.trimIndex(ti)
}

// trimIndex rebuilds tier ti's index from its residents once stale items
// outnumber them — at least half a tier's worth of pushes and drops apart —
// so the index stays within twice the residents.
func (e *Engine) trimIndex(ti int) {
	if len(e.rank[ti]) <= 2*len(e.resident[ti]) {
		return
	}
	h := e.rank[ti][:0]
	for id, ent := range e.resident[ti] {
		h = append(h, ranked{ent.score, id})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	e.rank[ti] = h
}

func siftDown(h []ranked, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && colder(h[c+1], h[c]) {
			c++
		}
		if !colder(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// coldest returns the lowest-ranked resident of tier ti, popping the stale
// items above it; ok is false for an empty tier.
func (e *Engine) coldest(ti int) (c ranked, ok bool) {
	for h := e.rank[ti]; len(h) > 0; h = e.popRank(ti) {
		if ent, live := e.resident[ti][h[0].id]; live && ent.score == h[0].score {
			return h[0], true
		}
	}
	return ranked{}, false
}

// popRank removes the top of tier ti's index and returns what is left.
func (e *Engine) popRank(ti int) []ranked {
	h := e.rank[ti]
	last := len(h) - 1
	h[0], h[last] = h[last], ranked{}
	h = h[:last]
	siftDown(h, 0)
	e.rank[ti] = h
	return h
}

// locate returns the tier index holding id in the engine model, or -1.
func (e *Engine) locate(id seg.ID) int {
	for ti := range e.resident {
		if _, ok := e.resident[ti][id]; ok {
			return ti
		}
	}
	return -1
}

// plan runs Algorithm 1 for one update, mutating the residency model and
// appending the required moves.
func (e *Engine) plan(u auditor.Update, plan *[]move) {
	if u.Size <= 0 {
		return
	}
	cur := e.locate(u.ID)
	if cur >= 0 {
		ent := e.resident[cur][u.ID]
		// Hysteresis: small score drift does not justify data movement —
		// update the model in place and keep the tier.
		if h := e.cfg.Hysteresis; h > 0 && u.Score > e.cfg.MinScore {
			base := ent.score
			if base < u.Score {
				base = u.Score
			}
			if base > 0 && abs(u.Score-ent.score)/base < h && u.Size == ent.size {
				e.setResident(cur, u.ID, entry{score: u.Score, size: ent.size})
				return
			}
		}
		// Remove from the model so watermarks exclude the segment itself;
		// re-placement decides whether it stays, moves, or is evicted.
		e.dropResident(cur, u.ID)
	}
	if !(u.Score > e.cfg.MinScore) { // at or below the floor, or not a number
		if cur >= 0 {
			*plan = append(*plan, move{id: u.ID, size: u.Size, from: cur, to: -1, trace: u.Trace})
		}
		return
	}
	switch e.cfg.Policy {
	case PolicyRandom, PolicyRoundRobin:
		e.placeFlat(u, cur, plan)
	default:
		e.place(u, cur, 0, plan)
	}
}

// placeFlat implements the ablation policies: pick a tier without
// considering scores, never demote.
func (e *Engine) placeFlat(u auditor.Update, cur int, plan *[]move) {
	n := e.hier.Len()
	start := 0
	if e.cfg.Policy == PolicyRoundRobin {
		start = int(e.rrNext) % n
		e.rrNext++
	} else {
		// Deterministic pseudo-random pick derived from the segment, so
		// runs are reproducible.
		h := uint64(14695981039346656037)
		for i := 0; i < len(u.ID.File); i++ {
			h = (h ^ uint64(u.ID.File[i])) * 1099511628211
		}
		h ^= uint64(u.ID.Index) * 0x9e3779b97f4a7c15
		start = int(h % uint64(n))
	}
	for i := 0; i < n; i++ {
		ti := (start + i) % n
		if e.used[ti]+u.Size <= e.hier.Tier(ti).Capacity() {
			e.setResident(ti, u.ID, entry{score: u.Score, size: u.Size})
			if cur != ti {
				*plan = append(*plan, move{id: u.ID, size: u.Size, from: cur, to: ti, trace: u.Trace})
			}
			return
		}
	}
	if cur >= 0 { // nothing fits anywhere: evict
		*plan = append(*plan, move{id: u.ID, size: u.Size, from: cur, to: -1, trace: u.Trace})
	}
}

// place implements CalculatePlacement(segment, tier).
func (e *Engine) place(u auditor.Update, cur, ti int, plan *[]move) {
	if ti >= e.hier.Len() {
		// Below the hierarchy: not prefetched (or evicted if resident).
		if cur >= 0 {
			*plan = append(*plan, move{id: u.ID, size: u.Size, from: cur, to: -1, trace: u.Trace})
		}
		return
	}
	tier := e.hier.Tier(ti)
	if e.used[ti]+u.Size > tier.Capacity() {
		// Tier full for this segment: admit only if it outranks the
		// coldest residents, demoting them to make room (DemoteSegments).
		if u.Score > e.minResident(ti) {
			e.demoteUntilFits(u, ti, plan)
		}
		if e.used[ti]+u.Size > tier.Capacity() {
			e.place(u, cur, ti+1, plan)
			return
		}
	}
	e.setResident(ti, u.ID, entry{score: u.Score, size: u.Size})
	if cur != ti {
		*plan = append(*plan, move{id: u.ID, size: u.Size, from: cur, to: ti, trace: u.Trace})
	}
}

// minResident returns the lowest resident score in tier ti, or +inf when
// empty (an empty-but-too-small tier admits nothing bigger than itself).
func (e *Engine) minResident(ti int) float64 {
	if c, ok := e.coldest(ti); ok {
		return c.score
	}
	return math.Inf(1)
}

// demoteUntilFits demotes the coldest residents of ti (strictly colder
// than u), coldest first, one tier down until u fits. Ties are left in
// place — the incoming segment goes deeper instead (deterministic variant
// of the paper's random tie policy). Demotion recurses only into deeper
// tiers, so ti's index is this call's alone.
func (e *Engine) demoteUntilFits(u auditor.Update, ti int, plan *[]move) {
	tier := e.hier.Tier(ti)
	for e.used[ti]+u.Size > tier.Capacity() {
		c, ok := e.coldest(ti)
		if !ok || !(c.score < u.Score) {
			return
		}
		size := e.resident[ti][c.id].size
		e.popRank(ti)
		e.dropResident(ti, c.id)
		e.place(auditor.Update{ID: c.id, Score: c.score, Size: size}, ti, ti+1, plan)
	}
}

// reconcile realigns the model and the mapping with the actual store
// state after a failed move, so a divergence can never duplicate a
// segment across tiers on a later run.
func (e *Engine) reconcile(mv move) {
	actual := e.hier.Locate(mv.id)
	e.mu.Lock()
	for ti := range e.resident {
		if ti == actual {
			continue
		}
		if _, ok := e.resident[ti][mv.id]; ok {
			e.dropResident(ti, mv.id)
		}
	}
	if actual >= 0 {
		if _, ok := e.resident[actual][mv.id]; !ok {
			e.setResident(actual, mv.id, entry{score: 0, size: e.hier.Tier(actual).SizeOf(mv.id)})
		}
	}
	if invariant.Enabled {
		// Reconciliation's whole contract: model and store agree on the
		// reconciled segment before the lock drops.
		invariant.Assert(e.locate(mv.id) == actual,
			"reconcile left model tier %d != store tier %d for %v",
			e.locate(mv.id), actual, mv.id)
	}
	e.mu.Unlock()
	if actual >= 0 {
		e.aud.SetMapping(mv.id, e.hier.Tier(actual).Name())
	} else {
		e.aud.DeleteMapping(mv.id)
	}
}

// Resident reports the engine's view of where id lives (-1 = not
// prefetched).
func (e *Engine) Resident(id seg.ID) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.locate(id)
}

// TierLoad returns the engine's modeled byte usage per tier.
func (e *Engine) TierLoad() []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int64, len(e.used))
	copy(out, e.used)
	return out
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

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
