package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Lifecycle stages and terminal markers beyond the pipeline-span stages
// of span.go. A lifecycle trace strings both kinds together: "event"
// opens the trace at ingestion, span stages (audit, decide, mover_queue,
// fetch) attach as the segment moves through the pipeline, and one of
// the marker stages below closes it.
const (
	// StageEvent marks trace creation: the access event entering the
	// monitor.
	StageEvent = "event"
	// StageMoverQueue is the time a move spends in the mover's
	// per-tier queue between submission and execution.
	StageMoverQueue = "mover_queue"
	// StageLand marks a prefetched segment arriving in its tier.
	StageLand = "land"
	// StageRead marks the first application read served from a tier.
	StageRead = "read"
	// StagePeerFetchServe marks a node serving a cross-node fetch from
	// its own tiers on behalf of a peer. It is recorded on the serving
	// node under the requester's trace ID, so a merged fleet export shows
	// the lifecycle spanning both nodes.
	StagePeerFetchServe = "peer_fetch_serve"
	// StageEvicted, StageAborted, StageInvalidated and StageDropped are
	// terminal markers: the segment left the hierarchy unread, its fetch
	// was superseded or failed, its file was invalidated by a write, or
	// the flight recorder evicted the trace to stay within its memory cap.
	StageEvicted     = "evicted"
	StageAborted     = "aborted"
	StageInvalidated = "invalidated"
	StageDropped     = "dropped"
)

// Class is the effectiveness verdict for one prefetched segment,
// assigned exactly once per (file, segment, generation) at first read or
// at the terminal event that makes a read impossible.
type Class uint8

// Effectiveness classes. ClassNone marks traces that never involved a
// prefetch (the segment was already resident, or the trace expired
// before the pipeline acted on it) — they are excluded from the
// effectiveness counters.
const (
	ClassNone Class = iota
	// ClassTimely: the fetch landed before the first read arrived; the
	// read hit the tier at full speed. Lead time (land → read) goes to
	// the hfetch_prefetch_lead_nanos histogram.
	ClassTimely
	// ClassLate: the first read arrived while the fetch was still in
	// flight and stalled on it (the WaitFor rescue path). The prefetch
	// still served the read, but cost a stall.
	ClassLate
	// ClassWasted: the fetch was queued or landed but the segment was
	// evicted, superseded, failed, or invalidated before any read.
	ClassWasted
	// ClassRedundant: the fetch landed after the demand read had already
	// been served from the PFS (including stall-timeout fallbacks), or
	// landed twice — the work duplicated I/O the application already paid
	// for.
	ClassRedundant
)

func (c Class) String() string {
	switch c {
	case ClassTimely:
		return "timely"
	case ClassLate:
		return "late"
	case ClassWasted:
		return "wasted"
	case ClassRedundant:
		return "redundant"
	}
	return "none"
}

// TraceEvent is one stage of a lifecycle trace. Nanos is zero for
// instant markers (event, land, terminal markers).
type TraceEvent struct {
	Stage string
	Tier  string
	Start time.Time
	Nanos int64
}

// TraceRecord is a whole-lifecycle trace: every stage one (file,
// segment, generation) passed through, under one trace ID. Done is false
// for in-flight snapshots.
type TraceRecord struct {
	ID     uint64
	File   string
	Seg    int64
	Class  Class
	Done   bool
	Events []TraceEvent
}

// Lifecycle defaults.
const (
	DefaultLifecycleRing        = 256
	DefaultLifecycleSampleEvery = 64
	DefaultLifecycleMaxActive   = 4096
)

const lifecycleStripes = 64

type segKey struct {
	file string
	seg  int64
}

// live is one active trace / ledger entry. Guarded by its stripe's lock.
type live struct {
	id     uint64
	born   time.Time
	events []TraceEvent

	// Ledger state, meaningful once fetchQueued is set.
	fetchQueued bool
	landed      bool
	landTime    time.Time
	missServed  bool // a demand read went to the PFS before landing
}

type stripe struct {
	mu sync.Mutex
	m  map[segKey]*live
}

// Lifecycle is the causal segment tracer plus prefetch-effectiveness
// ledger. It keeps a fixed-memory table of in-flight traces (lock
// striped by file+segment) and a flight-recorder ring of completed
// traces, and classifies every prefetched segment exactly once.
//
// Two populations share the table: event-rooted traces, created at
// ingestion with 1-in-N sampling (traces of plain resident reads are
// interesting but plentiful), and fetch-bearing entries, created
// unconditionally at fetch-queue time (prefetches are rare and the
// ledger must account for all of them). All methods are nil-safe.
type Lifecycle struct {
	nextID    atomic.Uint64
	sampleCtr atomic.Uint64
	every     uint64
	grain     atomic.Int64

	// active counts table entries; fetchActive counts the subset holding
	// an unclassified fetch. Hot paths gate on these before touching any
	// stripe lock.
	active      atomic.Int64
	fetchActive atomic.Int64

	perStripe int
	stripes   [lifecycleStripes]stripe

	ringMu sync.Mutex
	ring   ring[TraceRecord]

	window classWindow

	access *AccessLog

	// Classification counters; bound to a registry by EnableLifecycle.
	timely, late, wasted, redundant atomic.Int64
	completed, dropped              atomic.Int64
	lead                            *Histogram
}

// classWindow is the rolling window behind the effectiveness ratio.
type classWindow struct {
	mu     sync.Mutex
	ring   ring[Class]
	counts [5]int64
}

func (w *classWindow) add(c Class) {
	w.mu.Lock()
	if old, evicted := w.ring.push(c); evicted {
		w.counts[old]-- // the overwritten slot leaves the window
	}
	w.counts[c]++
	w.mu.Unlock()
}

// ratioPPM returns useful/total over the window in parts per million,
// where useful = timely + late (the prefetch served a read at all).
func (w *classWindow) ratioPPM() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := w.counts[ClassTimely] + w.counts[ClassLate] +
		w.counts[ClassWasted] + w.counts[ClassRedundant]
	if total == 0 {
		return 0
	}
	return (w.counts[ClassTimely] + w.counts[ClassLate]) * 1e6 / total
}

// NewLifecycle builds a tracer keeping ringSize completed traces,
// sampling one event-rooted trace in every `every`, and holding at most
// maxActive in-flight traces (all <= 0 take the defaults).
func NewLifecycle(ringSize, every, maxActive int) *Lifecycle {
	if ringSize <= 0 {
		ringSize = DefaultLifecycleRing
	}
	if every <= 0 {
		every = DefaultLifecycleSampleEvery
	}
	if maxActive <= 0 {
		maxActive = DefaultLifecycleMaxActive
	}
	per := maxActive / lifecycleStripes
	if per < 4 {
		per = 4
	}
	lc := &Lifecycle{
		every:     uint64(every),
		perStripe: per,
		ring:      newRing[TraceRecord](ringSize),
		lead:      &Histogram{},
		access:    NewAccessLog(DefaultAccessLogSize),
	}
	lc.window.ring = newRing[Class](512)
	for i := range lc.stripes {
		lc.stripes[i].m = make(map[segKey]*live)
	}
	return lc
}

// EnableLifecycle attaches a lifecycle tracer, of the default ring and
// in-flight cap, sampling one event-rooted trace in every `every` (<= 0
// takes the default), to the registry and registers its metric families.
// Nil-safe.
func (r *Registry) EnableLifecycle(every int) {
	if r == nil {
		return
	}
	lc := NewLifecycle(0, every, 0)
	lc.lead = r.Histogram("hfetch_prefetch_lead_nanos",
		"time a timely prefetch landed ahead of its first read")
	r.CounterFunc("hfetch_prefetch_timely_total",
		"prefetched segments that landed before their first read",
		lc.timely.Load)
	r.CounterFunc("hfetch_prefetch_late_total",
		"prefetched segments whose first read stalled on the in-flight fetch",
		lc.late.Load)
	r.CounterFunc("hfetch_prefetch_wasted_total",
		"prefetched segments evicted, superseded, failed or invalidated unread",
		lc.wasted.Load)
	r.CounterFunc("hfetch_prefetch_redundant_total",
		"prefetched segments that landed after the demand read was served from the PFS",
		lc.redundant.Load)
	r.GaugeFunc("hfetch_prefetch_effectiveness_ppm",
		"rolling (timely+late)/classified ratio in parts per million",
		lc.window.ratioPPM)
	r.GaugeFunc("hfetch_lifecycle_active",
		"in-flight lifecycle traces", lc.active.Load)
	r.CounterFunc("hfetch_lifecycle_completed_total",
		"lifecycle traces moved to the flight recorder", lc.completed.Load)
	r.CounterFunc("hfetch_lifecycle_dropped_total",
		"in-flight traces evicted to stay within the memory cap", lc.dropped.Load)
	r.lifecycle.Store(lc)
}

// Lifecycle returns the attached tracer (nil when not enabled).
func (r *Registry) Lifecycle() *Lifecycle {
	if r == nil {
		return nil
	}
	return r.lifecycle.Load()
}

// SetOrigin namespaces this tracer's IDs by node: the node name is
// hashed into the high 32 bits of the ID counter, so traces rooted on
// different nodes never collide when their exports are merged into one
// fleet trace. Call once at startup, before traffic.
func (lc *Lifecycle) SetOrigin(node string) {
	if lc == nil || node == "" {
		return
	}
	h := uint64(2166136261)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= 16777619
	}
	lc.nextID.Store((h & 0xffffffff) << 32)
}

// SetGrain sets the segment size used to map event offsets to segment
// indices. The server calls it once at startup.
func (lc *Lifecycle) SetGrain(g int64) {
	if lc != nil && g > 0 {
		lc.grain.Store(g)
	}
}

// SegOf maps a file offset to its segment index (-1 before SetGrain).
func (lc *Lifecycle) SegOf(off int64) int64 {
	if lc == nil {
		return -1
	}
	g := lc.grain.Load()
	if g <= 0 {
		return -1
	}
	return off / g
}

func (lc *Lifecycle) stripeOf(k segKey) *stripe {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.file); i++ {
		h ^= uint64(k.file[i])
		h *= 1099511628211
	}
	h ^= uint64(k.seg)
	h *= 1099511628211
	h ^= h >> 33
	return &lc.stripes[h%lifecycleStripes]
}

// insertLocked adds t under k, evicting a stale entry to the ring if the
// stripe is at its cap. Caller holds st.mu.
func (lc *Lifecycle) insertLocked(st *stripe, k segKey, t *live) {
	if len(st.m) >= lc.perStripe {
		// Evict the oldest entry, preferring ones without fetch state so
		// the ledger keeps accounting for real prefetches as long as it
		// can. Stripe caps are small, so the scan is bounded.
		var vk segKey
		var victim *live
		for ck, cv := range st.m {
			if victim == nil ||
				(victim.fetchQueued && !cv.fetchQueued) ||
				(victim.fetchQueued == cv.fetchQueued && cv.born.Before(victim.born)) {
				vk, victim = ck, cv
			}
		}
		delete(st.m, vk)
		lc.active.Add(-1)
		if victim.fetchQueued {
			lc.fetchActive.Add(-1)
		}
		lc.dropped.Add(1)
		victim.events = append(victim.events, TraceEvent{Stage: StageDropped, Start: time.Now()})
		lc.pushRing(vk, victim, ClassNone)
	}
	st.m[k] = t
	lc.active.Add(1)
}

// pushRing moves a finished entry into the flight-recorder ring.
func (lc *Lifecycle) pushRing(k segKey, t *live, class Class) {
	rec := TraceRecord{ID: t.id, File: k.file, Seg: k.seg, Class: class, Done: true, Events: t.events}
	lc.ringMu.Lock()
	lc.ring.push(rec)
	lc.ringMu.Unlock()
	lc.completed.Add(1)
}

// classify counts the verdict and retires the entry. Caller holds the
// stripe lock and has already removed the entry from the map.
func (lc *Lifecycle) classify(k segKey, t *live, class Class, terminal TraceEvent) {
	lc.active.Add(-1)
	if t.fetchQueued {
		lc.fetchActive.Add(-1)
	}
	if terminal.Stage != "" {
		t.events = append(t.events, terminal)
	}
	switch class {
	case ClassTimely:
		lc.timely.Add(1)
	case ClassLate:
		lc.late.Add(1)
	case ClassWasted:
		lc.wasted.Add(1)
	case ClassRedundant:
		lc.redundant.Add(1)
	}
	if class != ClassNone {
		lc.window.add(class)
	}
	lc.pushRing(k, t, class)
}

// OnEvent roots a new trace for an access event entering the monitor,
// 1-in-N sampled, and returns its trace ID (0 when not sampled or
// tracing is off). When the (file, segment) already has an in-flight
// trace the existing ID is returned, so repeated events on a hot segment
// share one generation.
//
//hfetch:hotpath
func (lc *Lifecycle) OnEvent(file string, off int64, at time.Time) uint64 {
	if lc == nil {
		return 0
	}
	seg := lc.SegOf(off)
	if seg < 0 {
		return 0
	}
	k := segKey{file, seg}
	sampled := lc.every <= 1 || lc.sampleCtr.Add(1)%lc.every == 0
	if !sampled && lc.active.Load() == 0 {
		return 0
	}
	st := lc.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if t, ok := st.m[k]; ok {
		return t.id
	}
	if !sampled {
		return 0
	}
	if at.IsZero() {
		//lint:allow hotpath fallback for unstamped events, reached only for traces that passed sampling
		at = time.Now()
	}
	t := &live{id: lc.nextID.Add(1), born: at}
	t.events = append(t.events, TraceEvent{Stage: StageEvent, Start: at})
	lc.insertLocked(st, k, t)
	return t.id
}

// Record attaches a pipeline span to the (file, segment)'s in-flight
// trace, if one exists. Registry.Span forwards here, so every
// instrumented stage joins traces with no call-site changes. Spans with
// no segment identity are skipped.
//
//hfetch:hotpath
func (lc *Lifecycle) Record(stage, file string, seg int64, tier string, start time.Time, d time.Duration) {
	if lc == nil || file == "" || seg < 0 || lc.active.Load() == 0 {
		return
	}
	k := segKey{file, seg}
	st := lc.stripeOf(k)
	st.mu.Lock()
	if t, ok := st.m[k]; ok {
		t.events = append(t.events, TraceEvent{Stage: stage, Tier: tier, Start: start, Nanos: int64(d)})
	}
	st.mu.Unlock()
}

// Current returns the trace ID of the (file, segment)'s in-flight
// trace, or 0 when none exists. It is the propagation hook: cross-node
// requests carry this ID so the serving peer can attach its spans to
// the same trace.
//
//hfetch:hotpath
func (lc *Lifecycle) Current(file string, seg int64) uint64 {
	if lc == nil || file == "" || seg < 0 || lc.active.Load() == 0 {
		return 0
	}
	k := segKey{file, seg}
	st := lc.stripeOf(k)
	st.mu.Lock()
	t := st.m[k]
	st.mu.Unlock()
	if t == nil {
		return 0
	}
	return t.id
}

// RecordPeer records a span performed on behalf of a foreign trace —
// one rooted on another node, whose ID arrived in a comm trace-context
// header. There is no local in-flight entry to attach to, so the span
// goes straight to the flight recorder as a completed single-span
// record under the foreign ID; merging exports across nodes re-unites
// it with the rest of the lifecycle.
func (lc *Lifecycle) RecordPeer(trace uint64, stage, file string, seg int64, tier string, start time.Time, d time.Duration) {
	if lc == nil || trace == 0 {
		return
	}
	t := &live{id: trace, born: start}
	t.events = append(t.events, TraceEvent{Stage: stage, Tier: tier, Start: start, Nanos: int64(d)})
	lc.pushRing(segKey{file, seg}, t, ClassNone)
}

// Active returns the in-flight trace count.
func (lc *Lifecycle) Active() int64 {
	if lc == nil {
		return 0
	}
	return lc.active.Load()
}

// EffCounts returns the classification totals.
func (lc *Lifecycle) EffCounts() (timely, late, wasted, redundant int64) {
	if lc == nil {
		return 0, 0, 0, 0
	}
	return lc.timely.Load(), lc.late.Load(), lc.wasted.Load(), lc.redundant.Load()
}

// LeadHist returns the timely lead-time histogram.
func (lc *Lifecycle) LeadHist() *Histogram {
	if lc == nil {
		return nil
	}
	return lc.lead
}

// AccessLog returns the folded access recorder (see AccessLog).
func (lc *Lifecycle) AccessLog() *AccessLog {
	if lc == nil {
		return nil
	}
	return lc.access
}

// Completed returns the flight-recorder ring, most recent first.
func (lc *Lifecycle) Completed() []TraceRecord {
	if lc == nil {
		return nil
	}
	lc.ringMu.Lock()
	defer lc.ringMu.Unlock()
	return lc.ring.held(true)
}

// Export returns completed traces plus snapshots of the in-flight ones
// (Done=false), for the trace exporters.
func (lc *Lifecycle) Export() []TraceRecord {
	if lc == nil {
		return nil
	}
	out := lc.Completed()
	for i := range lc.stripes {
		st := &lc.stripes[i]
		st.mu.Lock()
		for k, t := range st.m {
			evs := append([]TraceEvent(nil), t.events...)
			out = append(out, TraceRecord{ID: t.id, File: k.file, Seg: k.seg, Events: evs})
		}
		st.mu.Unlock()
	}
	return out
}
