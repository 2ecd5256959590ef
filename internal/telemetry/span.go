package telemetry

import "time"

// Pipeline stages of a segment's life, from the file-system event to the
// application read. Each stage's duration is aggregated into the
// hfetch_pipeline_stage_nanos{stage=...} histogram family and, when
// lifecycle tracing is on, joins the segment's in-flight trace.
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
// stage's aggregate histogram and, when lifecycle tracing is enabled and
// the segment has an in-flight trace, joins that trace — no call-site
// changes needed. Nil-safe; with a nil registry this is a single branch.
//
//hfetch:hotpath
func (r *Registry) Span(stage, file string, segIdx int64, tier string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	r.StageHist(stage).Observe(int64(d))
	if lc := r.lifecycle.Load(); lc != nil {
		lc.Record(stage, file, segIdx, tier, start, d)
	}
}
