// Package auditor implements HFetch's file segment auditor. For every
// file segment it maintains access frequency, recency, and segment
// sequencing (which segment access preceded it), computes the segment
// score of Equation (1), and keeps both the statistics and the
// segment-to-tier mappings in the distributed hashmap so the whole
// cluster shares one view of how files are accessed — without a global
// synchronization barrier.
//
// The auditor is driven by the hardware monitor's event stream. Every
// score change is pushed to a Sink (the hierarchical data placement
// engine), which is what makes HFetch server-push: prefetching is
// triggered by score changes, not by application requests.
//
// Both hashmaps are keyed by the segment identity itself (dhm.Key(id)):
// no textual key is built on the event path or the read path.
package auditor

import (
	"encoding/binary"
	"encoding/gob"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/core/heatmap"
	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
	"hfetch/internal/dhm"
	"hfetch/internal/events"
	"hfetch/internal/telemetry"
)

func init() {
	gob.Register(&Rec{})
}

// Rec is the per-segment record stored in the distributed hashmap. A
// segment has one *Rec for its lifetime: the ops below mutate it under
// its shard lock and answer in bytes, and whoever needs the record itself
// gets what was made of it under that lock — a deep copy (SegmentRec),
// its wire encoding (a remote get, a rebalance) or its gob (the WAL).
type Rec struct {
	Stats score.Stats
	// Size is the segment payload size in bytes (clipped at EOF).
	Size int64
	// Succ is the index of the segment observed to follow this one in
	// the global access stream; -1 when unknown.
	Succ int64
}

// Update notifies the placement engine that a segment's score changed.
type Update struct {
	ID    seg.ID
	Score float64
	Size  int64
	// Trace is the lifecycle trace ID of the access event behind this
	// update (0 = untraced); it lets the engine attribute the fetch it
	// decides on back to the event that caused it.
	Trace uint64
	// Origin names the node whose client drives the access (empty =
	// local). The cluster router uses it to deliver the update to the
	// placement engine of the node that will read the data.
	Origin string
	// Ahead marks a stream readahead hint: the segment has not been read
	// and its reader is a few requests away, so the engine decides on it
	// now instead of at its next trigger. The mark does not cross the
	// cluster router's wire: a hint routed to another node's engine waits
	// there like any update.
	Ahead bool
}

// Sink receives score updates and invalidations. Implemented by the
// hierarchical data placement engine.
type Sink interface {
	ScoreUpdated(Update)
	FileInvalidated(file string)
}

// BatchSink is optionally implemented by sinks that accept one delivery
// per drained event batch instead of one call per score change. The
// placement engine implements it: a batched delivery takes its pending
// lock once per drain cycle rather than once per update, which is what
// keeps shard workers from re-serializing on the engine after the event
// queue has been sharded.
//
// The slice belongs to the drain cycle: it is cleared and reused once
// ScoreBatch returns, so a sink copies out what it keeps.
type BatchSink interface {
	ScoreBatch([]Update)
}

// Config configures an Auditor.
type Config struct {
	// Node is this node's cluster name, recorded in segment mappings so
	// remote readers know which node's tier holds a segment.
	Node string
	// Segmenter defines the fixed segment grain.
	Segmenter *seg.Segmenter
	// Score are the Equation (1) parameters.
	Score score.Params
	// SeqBoost is the anticipatory weight given to a segment's known
	// successor on each access (0 disables sequencing readahead).
	// Defaults to 0.5.
	SeqBoost float64
	// Heatmaps, when non-nil, persists per-file heatmaps across epochs.
	Heatmaps *heatmap.Store
	// HeatDecay scales scores adopted from a stored heatmap (default 0.7).
	HeatDecay float64
	// Learner, when non-nil, enables the ML scoring extension: emitted
	// scores are blended with the learned re-access probability, and the
	// auditor feeds the model online (re-accesses as positives, one-shot
	// segments as negatives at epoch end).
	Learner *score.Learned
	// Telemetry, when non-nil, times per-event scoring (the audit
	// pipeline stage) and exports the auditor counters.
	Telemetry *telemetry.Registry
}

// Stats reports auditor counters.
type Stats struct {
	Events        int64
	Reads         int64
	Writes        int64
	Invalidations int64
	SegmentsSeen  int64
	// Hints counts the updates issued ahead of a detected stream.
	Hints int64
}

type epochState struct {
	opens   int
	size    int64
	streams streamTable
}

// epochStripes is the lock-stripe count for the per-file epoch table.
// Epoch state is touched by every read event, so it is striped by the
// same file hash the sharded event queue routes on: a shard worker's
// files cluster on a stable stripe subset and never contend with the
// other shards' workers.
const epochStripes = 64

type epochStripe struct {
	mu sync.Mutex
	m  map[string]*epochState
}

// Auditor is safe for concurrent use; many monitor daemons call
// HandleEvent in parallel.
type Auditor struct {
	cfg   Config
	model *score.Model
	stats *dhm.Map // segment -> *Rec
	maps  *dhm.Map // segment -> "node|tier" (string)
	// maxAhead is the stream readahead cap in segments.
	maxAhead int64

	sink atomic.Pointer[sinkBox]

	// locs interns the mapping value of each tier, so a landing stores a
	// value that already exists instead of building and boxing a string.
	locMu sync.Mutex
	locs  map[string]any

	epochs [epochStripes]epochStripe

	ctr struct {
		events, reads, writes, invalidations, segs, hints atomic.Int64
	}
}

type sinkBox struct{ s Sink }

// New creates an auditor over the given stats and mapping hashmaps: two
// distinct maps, both keyed by the segment identity (dhm.Key(id)). The
// maps must be backed by the same cluster on every node.
func New(cfg Config, stats, maps *dhm.Map) *Auditor {
	if cfg.Segmenter == nil {
		cfg.Segmenter = seg.NewSegmenter(0)
	}
	if cfg.SeqBoost == 0 {
		cfg.SeqBoost = 0.5
	}
	if cfg.SeqBoost < 0 {
		cfg.SeqBoost = 0
	}
	if cfg.HeatDecay <= 0 || cfg.HeatDecay > 1 {
		cfg.HeatDecay = 0.7
	}
	a := &Auditor{
		cfg:   cfg,
		model: score.NewModel(cfg.Score),
		stats: stats,
		maps:  maps,
		locs:  make(map[string]any),
	}
	a.maxAhead = max(1, min(streamMaxSegs, streamMaxBytes/cfg.Segmenter.Size()))
	for i := range a.epochs {
		a.epochs[i].m = make(map[string]*epochState)
	}
	a.registerOps()
	if reg := cfg.Telemetry; reg != nil {
		reg.CounterFunc("hfetch_events_total", "events seen by the auditor", a.ctr.events.Load)
		reg.CounterFunc("hfetch_reads_total", "read events audited", a.ctr.reads.Load)
		reg.CounterFunc("hfetch_invalidations_total", "write events invalidating prefetched data", a.ctr.invalidations.Load)
		reg.CounterFunc("hfetch_segments_seen", "distinct segments with statistics", a.ctr.segs.Load)
		reg.GaugeFunc("hfetch_open_epochs", "files inside a prefetching epoch", func() int64 {
			var n int64
			for i := range a.epochs {
				st := &a.epochs[i]
				st.mu.Lock()
				n += int64(len(st.m))
				st.mu.Unlock()
			}
			return n
		})
	}
	return a
}

// epochStripeOf returns the stripe holding file's epoch state.
func (a *Auditor) epochStripeOf(file string) *epochStripe {
	return &a.epochs[int(events.HashOf(file)%uint64(epochStripes))]
}

// SetSink installs the placement engine; may be changed at runtime.
func (a *Auditor) SetSink(s Sink) {
	a.sink.Store(&sinkBox{s: s})
}

func (a *Auditor) emit(u Update) {
	if box := a.sink.Load(); box != nil && box.s != nil {
		box.s.ScoreUpdated(u)
	}
}

func (a *Auditor) invalidate(file string) {
	if box := a.sink.Load(); box != nil && box.s != nil {
		box.s.FileInvalidated(file)
	}
}

// Segmenter returns the segment grain in use.
func (a *Auditor) Segmenter() *seg.Segmenter { return a.cfg.Segmenter }

// Model returns the scoring model.
func (a *Auditor) Model() *score.Model { return a.model }

// ---- distributed mutators ----

// Op names registered on the stats map. Every node must construct its
// Auditor before remote applies arrive (New registers them). Each op
// mutates the segment's one record in place and answers, under the shard
// lock, with what the event path goes on to use. No op keeps its arg or
// its result buffer: the event path passes every op the same scratch (see
// cycle).
const (
	opAccess = "aud.access" // arg: ts(8) | size(8); answer: scoreBits(8) | size(8) | succ(8)
	opRef    = "aud.ref"    // arg: ts(8) | weightBits(8); answer: scoreBits(8) | size(8)
	opLink   = "aud.link"   // arg: succ(8); answer: 1 when an existing record's link changed, else nothing
	opAddRef = "aud.addref" // arg: none; answer: nothing
	opSeed   = "aud.seed"   // arg: scoreBits(8) | refs(8) | succ(8) | size(8) | ts(8); answer: scoreBits(8) | size(8)
)

func (a *Auditor) registerOps() {
	a.stats.RegisterResultOp(opAccess, func(cur any, arg, res []byte) (any, []byte) {
		ts := time.Unix(0, int64(binary.BigEndian.Uint64(arg[0:8])))
		size := int64(binary.BigEndian.Uint64(arg[8:16]))
		r := a.rec(cur)
		a.model.OnAccess(&r.Stats, ts)
		if size > 0 {
			r.Size = size
		}
		sc := a.model.Score(&r.Stats, ts)
		if a.cfg.Learner != nil {
			sc = a.learnAndBlend(r, ts, sc)
		}
		return r, binary.BigEndian.AppendUint64(appendScoreSize(res, sc, r.Size), uint64(r.Succ))
	})
	a.stats.RegisterResultOp(opRef, func(cur any, arg, res []byte) (any, []byte) {
		ts := time.Unix(0, int64(binary.BigEndian.Uint64(arg[0:8])))
		w := math.Float64frombits(binary.BigEndian.Uint64(arg[8:16]))
		r := a.rec(cur)
		a.model.OnRef(&r.Stats, ts, w)
		return r, appendScoreSize(res, a.model.Score(&r.Stats, ts), r.Size)
	})
	a.stats.RegisterResultOp(opLink, func(cur any, arg, res []byte) (any, []byte) {
		r, _ := cur.(*Rec)
		if r == nil {
			return nil, res // a link is only learned from a segment that was read
		}
		if succ := int64(binary.BigEndian.Uint64(arg[0:8])); r.Succ != succ {
			r.Succ = succ
			res = append(res, 1)
		}
		return r, res
	})
	a.stats.RegisterResultOp(opAddRef, func(cur any, arg, res []byte) (any, []byte) {
		r := a.rec(cur)
		a.model.AddRef(&r.Stats)
		return r, res
	})
	a.stats.RegisterResultOp(opSeed, func(cur any, arg, res []byte) (any, []byte) {
		now := time.Unix(0, int64(binary.BigEndian.Uint64(arg[32:40])))
		r, _ := cur.(*Rec)
		if r == nil { // never clobber live statistics with history
			r = &Rec{}
			r.Stats.Sum = math.Float64frombits(binary.BigEndian.Uint64(arg[0:8]))
			r.Stats.Refs = max(1, int64(binary.BigEndian.Uint64(arg[8:16])))
			r.Succ = int64(binary.BigEndian.Uint64(arg[16:24]))
			r.Size = int64(binary.BigEndian.Uint64(arg[24:32]))
			r.Stats.Last = now
		}
		return r, appendScoreSize(res, a.model.Score(&r.Stats, now), r.Size)
	})
}

// rec returns the record an op mutates: the stored one, or a segment's
// first.
func (a *Auditor) rec(cur any) *Rec {
	if cur == nil {
		a.ctr.segs.Add(1)
		return &Rec{Succ: -1}
	}
	return cur.(*Rec)
}

func appendScoreSize(res []byte, sc float64, size int64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(res, math.Float64bits(sc)), uint64(size))
}

// scoreSize decodes the head of an op's answer; ok is false when the
// answer is not n bytes long (an owner that speaks another op table).
func scoreSize(out []byte, n int) (sc float64, size int64, ok bool) {
	if len(out) != n {
		return 0, 0, false
	}
	return math.Float64frombits(binary.BigEndian.Uint64(out)), int64(binary.BigEndian.Uint64(out[8:])), true
}

// ---- epoch management ----

// StartEpoch begins (or joins) a prefetching epoch for file. The first
// opener triggers heatmap loading; the return value reports whether this
// call opened the epoch (i.e. a watch should be installed).
func (a *Auditor) StartEpoch(file string, size int64) bool {
	st := a.epochStripeOf(file)
	st.mu.Lock()
	es := st.m[file]
	if es == nil {
		es = &epochState{size: size}
		st.m[file] = es
	}
	es.opens++
	first := es.opens == 1
	if size > es.size {
		es.size = size
	}
	st.mu.Unlock()
	if first {
		a.loadHeatmap(file, size)
	}
	return first
}

// EndEpoch ends one participant's epoch; the last closer persists the
// heatmap. The return value reports whether the epoch fully closed
// (i.e. the watch should be removed).
func (a *Auditor) EndEpoch(file string) bool {
	st := a.epochStripeOf(file)
	st.mu.Lock()
	es := st.m[file]
	if es == nil {
		st.mu.Unlock()
		return false
	}
	es.opens--
	last := es.opens <= 0
	var size int64
	if last {
		size = es.size
		delete(st.m, file)
	}
	st.mu.Unlock()
	if last {
		a.finishEpoch(file, size)
	}
	return last
}

// finishEpoch runs last-closer work: negative examples for the ML
// extension (segments touched exactly once this epoch) and heatmap
// persistence.
func (a *Auditor) finishEpoch(file string, size int64) {
	if a.cfg.Learner != nil {
		now := time.Now()
		n := a.cfg.Segmenter.Count(size)
		for i := int64(0); i < n; i++ {
			rec, ok := a.SegmentRec(seg.ID{File: file, Index: i})
			if !ok {
				continue
			}
			if rec.Stats.K == 1 {
				a.cfg.Learner.Observe(1, rec.Stats.Last, rec.Stats.Refs, now, false)
			}
		}
	}
	a.saveHeatmap(file, size)
}

// EpochOpen reports whether file is inside a prefetching epoch.
func (a *Auditor) EpochOpen(file string) bool {
	st := a.epochStripeOf(file)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m[file] != nil
}

func (a *Auditor) loadHeatmap(file string, size int64) {
	if a.cfg.Heatmaps == nil {
		return
	}
	h, err := a.cfg.Heatmaps.Load(file)
	if err != nil || h == nil {
		return
	}
	now := time.Now()
	arg, res := make([]byte, 40), make([]byte, 0, 16)
	binary.BigEndian.PutUint64(arg[32:40], uint64(now.UnixNano()))
	for _, e := range h.Entries {
		id := seg.ID{File: file, Index: e.Index}
		segSize := a.cfg.Segmenter.RangeOf(id, size).Len
		if segSize <= 0 {
			continue
		}
		binary.BigEndian.PutUint64(arg[0:8], math.Float64bits(e.Score*a.cfg.HeatDecay))
		binary.BigEndian.PutUint64(arg[8:16], uint64(e.Refs))
		binary.BigEndian.PutUint64(arg[16:24], uint64(e.Succ))
		binary.BigEndian.PutUint64(arg[24:32], uint64(segSize))
		out, err := a.stats.ApplyResult(dhm.Key(id), opSeed, arg, res)
		if s, recSize, ok := scoreSize(out, 16); err == nil && ok && s > 0 {
			a.emit(Update{ID: id, Score: s, Size: recSize})
		}
	}
}

func (a *Auditor) saveHeatmap(file string, size int64) {
	if a.cfg.Heatmaps == nil {
		return
	}
	h := heatmap.New(file, a.cfg.Segmenter.Size())
	now := time.Now()
	n := a.cfg.Segmenter.Count(size)
	for i := int64(0); i < n; i++ {
		rec, ok := a.SegmentRec(seg.ID{File: file, Index: i})
		if !ok {
			continue
		}
		s := a.model.Score(&rec.Stats, now)
		if s <= 0 && rec.Stats.K == 0 {
			continue
		}
		h.Add(heatmap.Entry{Index: i, Score: s, K: rec.Stats.K, Refs: rec.Stats.Refs, Succ: rec.Succ})
	}
	if h.Len() == 0 {
		return
	}
	if old, err := a.cfg.Heatmaps.Load(file); err == nil {
		h.Merge(old, a.cfg.HeatDecay)
	}
	a.cfg.Heatmaps.Save(h) //nolint:errcheck // heatmaps are an optional optimization
}

// ---- event handling ----

// cycle is what one drain cycle owns: where its score updates go and
// the scratch every op argument and answer of the cycle is written into.
// Cycles are pooled: a drain allocates nothing once its ups has grown to
// the batches it sees.
type cycle struct {
	a *Auditor
	// batch, when non-nil, gets the updates collected in ups in one
	// ScoreBatch delivery; otherwise each goes straight to the sink.
	batch BatchSink
	ups   []Update
	arg   [16]byte
	res   [24]byte
}

var cyclePool = sync.Pool{New: func() any { return new(cycle) }}

func (c *cycle) out(u Update) {
	if c.batch != nil {
		c.ups = append(c.ups, u)
		return
	}
	c.a.emit(u)
}

// finish delivers what the cycle collected and returns it to the pool,
// cleared: the updates hold file names the pool must not keep alive.
func (c *cycle) finish() {
	if len(c.ups) > 0 {
		c.batch.ScoreBatch(c.ups)
	}
	clear(c.ups)
	*c = cycle{ups: c.ups[:0]}
	cyclePool.Put(c)
}

// HandleEvent processes one monitored event; called by the monitor's
// daemon pool.
func (a *Auditor) HandleEvent(ev events.Event) {
	c := cyclePool.Get().(*cycle)
	c.a = a
	a.handleEvent(ev, c)
	c.finish()
}

// HandleBatch processes one drained batch (monitor.BatchHandler). When
// the sink implements BatchSink, the batch's score updates are
// accumulated locally and delivered in a single ScoreBatch call, so a
// shard worker takes the engine's pending lock once per drain cycle
// instead of once per score change.
func (a *Auditor) HandleBatch(evs []events.Event) {
	c := cyclePool.Get().(*cycle)
	c.a = a
	if box := a.sink.Load(); box != nil {
		c.batch, _ = box.s.(BatchSink)
	}
	for _, ev := range evs {
		a.handleEvent(ev, c)
	}
	c.finish()
}

// handleEvent audits one event, sending every score change to c.
//
//hfetch:hotpath
func (a *Auditor) handleEvent(ev events.Event, c *cycle) {
	a.ctr.events.Add(1)
	var start time.Time
	timed := a.cfg.Telemetry.TimeSample()
	if timed {
		start = time.Now()
	}
	switch ev.Op {
	case events.OpRead:
		a.ctr.reads.Add(1)
		a.handleRead(ev, c)
	case events.OpWrite:
		a.ctr.writes.Add(1)
		a.handleWrite(ev)
	case events.OpCapacity, events.OpOpen, events.OpClose:
		// Capacity is consumed for metrics; open/close epochs arrive via
		// the agent manager's StartEpoch/EndEpoch.
	}
	if timed {
		segIdx := int64(-1)
		if ev.Op == events.OpRead {
			segIdx = a.cfg.Segmenter.IndexOf(ev.Offset)
		}
		a.cfg.Telemetry.Span(telemetry.StageAudit, ev.File, segIdx, ev.Tier, start, time.Since(start))
	}
}

//hfetch:hotpath
func (a *Auditor) handleRead(ev events.Event, c *cycle) {
	if ev.Length <= 0 || ev.Offset < 0 || ev.Offset+ev.Length < 0 {
		return
	}
	// The segments the read covers, as Segmenter.Cover would list them.
	first := a.cfg.Segmenter.IndexOf(ev.Offset)
	last := a.cfg.Segmenter.IndexOf(ev.Offset + ev.Length - 1)
	st := a.epochStripeOf(ev.File)
	st.mu.Lock()
	es := st.m[ev.File]
	var prev, hintFrom, hintTo int64 = -1, 0, 0
	var fileSize int64
	if es != nil {
		fileSize = es.size
		// A gateway hint is not an access: it neither moves a stream nor
		// teaches a link. A gateway read does both, but is hinted by the
		// gateway's own per-client detector, so its window here is empty.
		if a.cfg.SeqBoost > 0 && ev.Via != events.ViaHint {
			maxAhead := a.maxAhead
			if ev.Via != events.ViaAgent {
				maxAhead = 0
			}
			prev, hintFrom, hintTo = es.streams.note(first, last, a.cfg.Segmenter.Count(fileSize), maxAhead)
		}
	}
	st.mu.Unlock()

	ts := ev.Time
	if ts.IsZero() {
		//lint:allow hotpath fallback for events posted without a capture-time stamp; fires once per read event, not per segment
		ts = time.Now()
	}

	for idx := first; idx <= last; idx++ {
		id := seg.ID{File: ev.File, Index: idx}
		segSize := a.cfg.Segmenter.RangeOf(id, fileSize).Len
		if segSize <= 0 {
			segSize = a.cfg.Segmenter.Size()
		}
		binary.BigEndian.PutUint64(c.arg[0:8], uint64(ts.UnixNano()))
		binary.BigEndian.PutUint64(c.arg[8:16], uint64(segSize))
		out, err := a.stats.ApplyResult(dhm.Key(id), opAccess, c.arg[:], c.res[:0])
		sc, size, ok := scoreSize(out, 24)
		if err != nil || !ok {
			continue
		}
		succ := int64(binary.BigEndian.Uint64(out[16:]))
		up := Update{ID: id, Score: sc, Size: size, Origin: ev.Origin}
		if idx == first {
			// The event's trace is rooted at its first segment; updates
			// for the rest of a multi-segment read stay untraced.
			up.Trace = ev.Trace
		}
		c.out(up)

		// Sequencing readahead: boost the known successor of every
		// accessed segment so it climbs the hierarchy ahead of its read.
		if succ >= 0 && succ != idx && a.cfg.SeqBoost > 0 {
			a.boost(seg.ID{File: ev.File, Index: succ}, ts, fileSize, ev.Origin, false, c)
		}
	}

	// Learn the predecessor link from the last segment of the stream's
	// previous read to the first segment of this one.
	a.learnLink(ev.File, prev, first, c)

	// Stream readahead: the segments beyond a detected stream get the same
	// anticipatory weight before anything has been learned about them.
	if hintFrom < hintTo {
		a.ctr.hints.Add(hintTo - hintFrom)
		for idx := hintFrom; idx < hintTo; idx++ {
			a.boost(seg.ID{File: ev.File, Index: idx}, ts, fileSize, ev.Origin, true, c)
		}
	}
}

// learnLink records that segment prev is followed by cur, increasing
// cur's reference count when the link is new.
//
//hfetch:hotpath
func (a *Auditor) learnLink(file string, prev, cur int64, c *cycle) {
	if prev < 0 || prev == cur {
		return
	}
	binary.BigEndian.PutUint64(c.arg[0:8], uint64(cur))
	out, err := a.stats.ApplyResult(dhm.Key{File: file, Index: prev}, opLink, c.arg[:8], c.res[:0])
	if err != nil || len(out) == 0 {
		return // prev has no record, or the link is already known
	}
	a.stats.ApplyResult(dhm.Key{File: file, Index: cur}, opAddRef, nil, c.res[:0]) //nolint:errcheck
}

// boost applies the anticipatory sequencing weight to id. The update
// inherits the triggering access's origin: the successor should be
// prefetched where the reader is.
//
//hfetch:hotpath
func (a *Auditor) boost(id seg.ID, ts time.Time, fileSize int64, origin string, ahead bool, c *cycle) {
	binary.BigEndian.PutUint64(c.arg[0:8], uint64(ts.UnixNano()))
	binary.BigEndian.PutUint64(c.arg[8:16], math.Float64bits(a.cfg.SeqBoost))
	out, err := a.stats.ApplyResult(dhm.Key(id), opRef, c.arg[:], c.res[:0])
	sc, size, ok := scoreSize(out, 16)
	if err != nil || !ok {
		return
	}
	if size == 0 {
		size = a.cfg.Segmenter.RangeOf(id, fileSize).Len
		if size <= 0 {
			size = a.cfg.Segmenter.Size()
		}
	}
	c.out(Update{ID: id, Score: sc, Size: size, Origin: origin, Ahead: ahead})
}

// learnAndBlend feeds the learner a positive example for the segment's
// pre-access state (this access proves it was re-accessed) and blends
// the analytic score with the predicted re-access probability. It runs
// inside opAccess: the learner's mutex nests under the shard lock.
func (a *Auditor) learnAndBlend(rec *Rec, ts time.Time, analytic float64) float64 {
	st := &rec.Stats
	if st.K >= 2 && len(st.History) >= 2 {
		prevLast := st.History[len(st.History)-2]
		a.cfg.Learner.Observe(st.K-1, prevLast, st.Refs, ts, true)
	}
	p := a.cfg.Learner.Predict(st.K, st.Last, st.Refs, ts)
	return score.Blend(analytic, p)
}

func (a *Auditor) handleWrite(ev events.Event) {
	a.ctr.invalidations.Add(1)
	// Consistency: a write from any application invalidates prefetched
	// data for the file. Mappings are cleared by the engine (which owns
	// the tier residents); statistics survive, the data does not.
	a.invalidate(ev.File)
}

// ---- queries ----

// SegmentRec returns a snapshot of the stats record for id: a deep copy
// taken under the record's shard lock.
func (a *Auditor) SegmentRec(id seg.ID) (*Rec, bool) {
	var snap *Rec
	ok, err := a.stats.ViewKey(dhm.Key(id), func(v any) {
		r := *v.(*Rec)
		r.Stats.History = append([]time.Time(nil), r.Stats.History...)
		snap = &r
	})
	return snap, ok && err == nil
}

// ScoreOf evaluates id's current score.
func (a *Auditor) ScoreOf(id seg.ID, at time.Time) float64 {
	rec, ok := a.SegmentRec(id)
	if !ok {
		return 0
	}
	return a.model.Score(&rec.Stats, at)
}

// Mapping returns which node and tier currently hold id. ok is false
// when the segment is not prefetched anywhere.
func (a *Auditor) Mapping(id seg.ID) (node, tier string, ok bool) {
	v, ok, err := a.maps.GetKey(dhm.Key(id))
	if err != nil || !ok {
		return "", "", false
	}
	loc, _ := v.(string)
	if loc == "" {
		return "", "", false
	}
	if i := strings.IndexByte(loc, '|'); i >= 0 {
		return loc[:i], loc[i+1:], true
	}
	return "", loc, true
}

// SetMapping records id as resident in this node's tier; engine-only.
func (a *Auditor) SetMapping(id seg.ID, tier string) {
	a.locMu.Lock()
	loc, ok := a.locs[tier]
	if !ok {
		loc = a.cfg.Node + "|" + tier
		a.locs[tier] = loc
	}
	a.locMu.Unlock()
	a.maps.PutKey(dhm.Key(id), loc) //nolint:errcheck // mapping is advisory; reads fall back to PFS
}

// DeleteMapping clears id's residency; engine-only.
func (a *Auditor) DeleteMapping(id seg.ID) {
	a.maps.DeleteKey(dhm.Key(id)) //nolint:errcheck
}

// Sweep garbage-collects segment statistics: records belonging to files
// with no open epoch whose score has decayed below floor — and which are
// not prefetched anywhere — are deleted. It returns how many records
// were removed. Long-running servers call this periodically so the
// statistics map tracks the active working set instead of growing with
// every file ever touched ("heatmaps get deleted once the workflow
// ends").
func (a *Auditor) Sweep(now time.Time, floor float64) int {
	var victims []seg.ID
	a.stats.Range(func(k dhm.Key, val any) bool {
		if rec, ok := val.(*Rec); ok && a.model.Score(&rec.Stats, now) < floor {
			victims = append(victims, seg.ID(k))
		}
		return true
	})
	removed := 0
	for _, id := range victims {
		if a.EpochOpen(id.File) {
			continue
		}
		if _, _, mapped := a.Mapping(id); mapped {
			continue // still resident in a tier; the engine owns it
		}
		a.stats.DeleteKey(dhm.Key(id)) //nolint:errcheck
		removed++
	}
	return removed
}

// Counters returns a snapshot of the auditor counters.
func (a *Auditor) Counters() Stats {
	return Stats{
		Events:        a.ctr.events.Load(),
		Reads:         a.ctr.reads.Load(),
		Writes:        a.ctr.writes.Load(),
		Invalidations: a.ctr.invalidations.Load(),
		SegmentsSeen:  a.ctr.segs.Load(),
		Hints:         a.ctr.hints.Load(),
	}
}
