package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pipeline stages of a segment's life, from the file-system event to the
// application read. Each stage's duration is aggregated into the
// hfetch_pipeline_stage_nanos{stage=...} histogram family and,
// when a span log is enabled, sampled into it with the file+segment
// correlation key.
const (
	// StageQueueWait is the time an event spends in the monitor's queue
	// between Post and daemon dequeue.
	StageQueueWait = "queue_wait"
	// StageAudit is the auditor's per-event scoring time.
	StageAudit = "audit"
	// StagePlace is one placement-engine decision pass (plan only, not
	// data movement).
	StagePlace = "place"
	// StageDecide is one full engine pass from entry to the point the
	// engine can accept the next pass: planning plus submission to the
	// mover's queues, so it holds device time only while a full queue
	// pushes back.
	StageDecide = "decide"
	// StageFetch is one ioclient data movement (PFS fetch or tier
	// transfer) executed for a placement.
	StageFetch = "fetch"
	// StageClientRead is one application ReadAt through the agent.
	StageClientRead = "client_read"
)

// StageHistName is the histogram family every span aggregates into.
const StageHistName = "hfetch_pipeline_stage_nanos"

// SpanRecord is one sampled pipeline span.
type SpanRecord struct {
	Stage string
	// File and Seg correlate spans of the same segment across stages.
	// Seg is -1 when the span covers more than one segment (a placement
	// pass, a multi-segment read).
	File  string
	Seg   int64
	Tier  string
	Start time.Time
	Nanos int64
}

// SpanLog is a sampled ring of recent pipeline spans. Sampling happens
// on an atomic counter; only sampled spans take the ring lock.
type SpanLog struct {
	every uint64
	n     atomic.Uint64

	mu   sync.Mutex
	ring []SpanRecord
	next int
	full bool
}

// NewSpanLog returns a ring keeping size spans, sampling one span in
// every `every` (minimums 1).
func NewSpanLog(size, every int) *SpanLog {
	if size < 1 {
		size = 1
	}
	if every < 1 {
		every = 1
	}
	return &SpanLog{every: uint64(every), ring: make([]SpanRecord, size)}
}

func (l *SpanLog) record(rec SpanRecord) {
	if l == nil {
		return
	}
	if l.n.Add(1)%l.every != 0 {
		return
	}
	l.mu.Lock()
	l.ring[l.next] = rec
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
}

// Recent returns the sampled spans, most recent first.
func (l *SpanLog) Recent() []SpanRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.full {
		n = len(l.ring)
	}
	out := make([]SpanRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := (l.next - 1 - i + len(l.ring)) % len(l.ring)
		out = append(out, l.ring[idx])
	}
	return out
}

// EnableSpans attaches a sampled span log to the registry: size spans
// are kept, one in every `every` spans is sampled. Aggregate stage
// histograms are recorded regardless; the log adds the correlated
// per-span detail. Nil-safe.
func (r *Registry) EnableSpans(size, every int) {
	if r == nil {
		return
	}
	r.spans.Store(NewSpanLog(size, every))
}

// Spans returns the attached span log (nil when not enabled).
func (r *Registry) Spans() *SpanLog {
	if r == nil {
		return nil
	}
	return r.spans.Load()
}

// StageHist returns the aggregate histogram for one pipeline stage,
// cached so repeated calls are a sync.Map read. Nil-safe.
func (r *Registry) StageHist(stage string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.stageHists.Load(stage); ok {
		return h.(*Histogram)
	}
	h := r.Histogram(StageHistName, "per-stage pipeline latency in nanoseconds", "stage", stage)
	r.stageHists.Store(stage, h)
	return h
}

// Span records one pipeline stage execution: the duration lands in the
// stage's aggregate histogram and, when a span log is enabled, the span
// may be sampled into it. When lifecycle tracing is enabled and the
// segment has an in-flight trace, the span also joins that trace —
// no call-site changes needed. Nil-safe; with a nil registry this is a
// single branch.
//
//hfetch:hotpath
func (r *Registry) Span(stage, file string, segIdx int64, tier string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	r.StageHist(stage).Observe(int64(d))
	if l := r.spans.Load(); l != nil {
		l.record(SpanRecord{Stage: stage, File: file, Seg: segIdx, Tier: tier, Start: start, Nanos: int64(d)})
	}
	if lc := r.lifecycle.Load(); lc != nil {
		lc.Record(stage, file, segIdx, tier, start, d)
	}
}
