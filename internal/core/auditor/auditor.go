// Package auditor implements HFetch's file segment auditor. For every
// file segment it maintains access frequency, recency, and segment
// sequencing (which segment access preceded it), computes the segment
// score of Equation (1), and keeps both the statistics and the
// segment-to-tier mappings in the distributed hashmap so the whole
// cluster shares one view of how files are accessed — without a global
// synchronization barrier.
//
// The auditor is driven by the hardware monitor's event stream, one
// drained batch at a time. The score changes of a batch are pushed to a
// Sink (the hierarchical data placement engine) in one delivery, which is
// what makes HFetch server-push: prefetching is triggered by score
// changes, not by application requests.
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
// segment has one *Rec for its lifetime, carved from a chunk (newRec):
// the ops below mutate it under its shard lock and answer in bytes, and
// whoever needs the record itself gets what was made of it under that
// lock — a plain copy (SegmentRec), its wire encoding (a remote get, a
// rebalance) or its gob (the WAL).
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
	// Ahead marks a stream readahead hint: the segment has not been read
	// and its reader is a few requests away, so the engine decides on it
	// now instead of at its next trigger.
	Ahead bool
}

// Sink receives score updates and invalidations. Implemented by the
// hierarchical data placement engine (and the cluster router in front of
// it). ScoreBatch gets one delivery per drained event batch, so the
// engine takes its pending lock once per drain cycle rather than once per
// update, which is what keeps shard workers from re-serializing on it.
// The slice belongs to the drain cycle: it is cleared and reused once
// ScoreBatch returns, so a sink copies out what it keeps.
type Sink interface {
	ScoreBatch([]Update)
	FileInvalidated(file string)
}

// heatDecay scales the scores adopted from a stored heatmap and the old
// heatmap merged into a saved one.
const heatDecay = 0.7

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
	opens int
	// closing counts last closers waiting for the file's events to
	// drain; the last of them deletes the epoch unless it was reopened.
	closing int
	size    int64

	mu      sync.Mutex // a leaf, held for a stream match alone
	streams streamTable
}

// epochStripes is the lock-stripe count for the per-file epoch table,
// which is also the watch table: only files with an open epoch generate
// events. Epoch state is touched by every read event, so it is striped
// by the same file hash the sharded event queue routes on: a shard
// worker's files cluster on a stable stripe subset and never contend
// with the other shards' workers.
const epochStripes = 64

type epochStripe struct {
	mu sync.RWMutex // written by StartEpoch and EndEpoch alone: a poster never waits on an audit
	m  map[string]*epochState
}

// Auditor is safe for concurrent use; many monitor daemons call
// HandleBatch in parallel.
type Auditor struct {
	cfg   Config
	model *score.Model
	stats *dhm.Map // segment -> *Rec
	maps  *dhm.Map // segment -> "node|tier" (string)
	// maxAhead is the stream readahead cap in segments.
	maxAhead int64
	// landing is the mover's smoothed fetch landing time in nanoseconds
	// (SetLanding); 0, unknown, until set.
	landing *atomic.Int64

	sink atomic.Pointer[sinkBox]

	// locs interns the mapping value of each tier, so a landing stores a
	// value that already exists instead of building and boxing a string.
	locMu sync.Mutex
	locs  map[string]any

	recMu   sync.Mutex // a leaf, held for newRec's carve alone
	recFree []Rec      // the rest of the chunk newRec carves from

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
	a := &Auditor{
		cfg:     cfg,
		model:   score.NewModel(cfg.Score),
		stats:   stats,
		maps:    maps,
		locs:    make(map[string]any),
		landing: new(atomic.Int64),
	}
	a.maxAhead = max(1, min(streamMaxSegs, streamMaxBytes/cfg.Segmenter.Size()))
	for i := range a.epochs {
		a.epochs[i].m = make(map[string]*epochState)
	}
	a.registerOps()
	if reg := cfg.Telemetry; reg != nil {
		reg.CounterFunc("hfetch_reads_total", "read events audited", a.ctr.reads.Load)
		reg.CounterFunc("hfetch_invalidations_total", "write events invalidating prefetched data", a.ctr.invalidations.Load)
		reg.CounterFunc("hfetch_segments_seen", "distinct segments with statistics", a.ctr.segs.Load)
		reg.GaugeFunc("hfetch_open_epochs", "files inside a prefetching epoch", func() int64 {
			var n int64
			for i := range a.epochs {
				st := &a.epochs[i]
				st.mu.RLock()
				n += int64(len(st.m))
				st.mu.RUnlock()
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

// SetLanding installs the mover's smoothed fetch landing time, in
// nanoseconds, which sizes the readahead window of a reader that outruns
// it. Call before traffic.
func (a *Auditor) SetLanding(ns *atomic.Int64) { a.landing = ns }

// deliver hands ups to the sink in one delivery.
func (a *Auditor) deliver(ups []Update) {
	if box := a.sink.Load(); box != nil && box.s != nil && len(ups) > 0 {
		box.s.ScoreBatch(ups)
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
			r = a.newRec()
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
		return a.newRec()
	}
	return cur.(*Rec)
}

// newRec carves a record with no successor from the current chunk of 64.
// A record lives as long as its segment's statistics, so none is handed
// back; a live record keeps its chunk (21 KiB) from the collector.
func (a *Auditor) newRec() *Rec {
	a.recMu.Lock()
	if len(a.recFree) == 0 {
		a.recFree = make([]Rec, 64)
	}
	r := &a.recFree[0]
	a.recFree = a.recFree[1:]
	a.recMu.Unlock()
	r.Succ = -1
	return r
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

// StartEpoch begins (or joins) a prefetching epoch for file: the file's
// events are audited from now on. The first opener triggers heatmap
// loading; the return value reports whether this call created the epoch.
// Reopening a file whose last closer is still draining joins its epoch
// again, with nothing loaded.
func (a *Auditor) StartEpoch(file string, size int64) bool {
	st := a.epochStripeOf(file)
	st.mu.Lock()
	es := st.m[file]
	first := es == nil
	if first {
		es = &epochState{size: size}
		st.m[file] = es
	}
	es.opens++
	if size > es.size {
		es.size = size
	}
	st.mu.Unlock()
	if first {
		a.loadHeatmap(file, size)
	}
	return first
}

// EndEpoch ends one participant's epoch. The last closer stops the file's
// events, calls drained, which returns once the events already posted
// have been audited, and then persists the heatmap and deletes the epoch,
// unless the file was opened again meanwhile. The return value reports
// whether the epoch fully closed.
func (a *Auditor) EndEpoch(file string, drained func()) bool {
	st := a.epochStripeOf(file)
	st.mu.Lock()
	es := st.m[file]
	if es == nil || es.opens == 0 {
		st.mu.Unlock()
		return false
	}
	es.opens--
	if es.opens > 0 {
		st.mu.Unlock()
		return false
	}
	es.closing++
	st.mu.Unlock()
	drained()
	st.mu.Lock()
	es.closing--
	last := es.opens == 0 && es.closing == 0
	size := es.size
	if last {
		delete(st.m, file)
	}
	st.mu.Unlock()
	if last {
		a.saveHeatmap(file, size)
	}
	return last
}

// EpochOpen reports whether file is inside a prefetching epoch, that is,
// whether its events are audited.
func (a *Auditor) EpochOpen(file string) bool {
	st := a.epochStripeOf(file)
	st.mu.RLock()
	defer st.mu.RUnlock()
	es := st.m[file]
	return es != nil && es.opens > 0
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
	var ups []Update
	for _, e := range h.Entries {
		id := seg.ID{File: file, Index: e.Index}
		segSize := a.cfg.Segmenter.RangeOf(id, size).Len
		if segSize <= 0 {
			continue
		}
		binary.BigEndian.PutUint64(arg[0:8], math.Float64bits(e.Score*heatDecay))
		binary.BigEndian.PutUint64(arg[8:16], uint64(e.Refs))
		binary.BigEndian.PutUint64(arg[16:24], uint64(e.Succ))
		binary.BigEndian.PutUint64(arg[24:32], uint64(segSize))
		out, err := a.stats.ApplyResult(dhm.Key(id), opSeed, arg, res)
		if s, recSize, ok := scoreSize(out, 16); err == nil && ok && s > 0 {
			ups = append(ups, Update{ID: id, Score: s, Size: recSize})
		}
	}
	a.deliver(ups)
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
		h.Merge(old, heatDecay)
	}
	a.cfg.Heatmaps.Save(h) //nolint:errcheck // heatmaps are an optional optimization
}

// ---- event handling ----

// cycle is what one drain cycle owns: the score updates it collects and
// the scratch every op argument and answer of the cycle is written into.
// Cycles are pooled: a drain allocates nothing once its ups has grown to
// the batches it sees.
type cycle struct {
	ups []Update
	arg [16]byte
	res [24]byte
}

var cyclePool = sync.Pool{New: func() any { return new(cycle) }}

// HandleBatch processes one drained batch (monitor.Handler): the batch's
// score updates are collected and delivered in a single ScoreBatch call,
// so a shard worker takes the engine's pending lock once per drain cycle
// instead of once per score change.
func (a *Auditor) HandleBatch(evs []events.Event) {
	c := cyclePool.Get().(*cycle)
	for _, ev := range evs {
		a.handleEvent(ev, c)
	}
	a.deliver(c.ups)
	// Back to the pool cleared: the updates hold file names the pool
	// must not keep alive.
	clear(c.ups)
	c.ups = c.ups[:0]
	cyclePool.Put(c)
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
	}
	if timed {
		segIdx := int64(-1)
		if ev.Op == events.OpRead {
			segIdx = a.cfg.Segmenter.IndexOf(ev.Offset)
		}
		a.cfg.Telemetry.Span(telemetry.StageAudit, ev.File, segIdx, "", start, time.Since(start))
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
	st.mu.RLock()
	es := st.m[ev.File]
	var fileSize int64
	if es != nil {
		fileSize = es.size
	}
	st.mu.RUnlock()
	var prev, hintFrom, hintTo int64 = -1, 0, 0
	if es != nil && a.cfg.SeqBoost > 0 {
		es.mu.Lock()
		prev, hintFrom, hintTo = es.streams.note(ev.Offset, ev.Offset+ev.Length, a.cfg.Segmenter.Size(), a.cfg.Segmenter.Count(fileSize), a.maxAhead,
			ev.Think, time.Duration(a.landing.Load()))
		es.mu.Unlock()
	}

	ts := ev.Time
	if ts.IsZero() {
		//lint:allow hotpath fallback for events posted without a capture-time stamp; fires once per read event, not per segment
		ts = time.Now()
	}

	var top float64 // the read's highest segment score
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
		up := Update{ID: id, Score: sc, Size: size}
		if idx == first {
			// The event's trace is rooted at its first segment; updates
			// for the rest of a multi-segment read stay untraced.
			up.Trace = ev.Trace
		}
		c.ups = append(c.ups, up)
		top = max(top, sc)

		// Sequencing readahead: boost the known successor of every
		// accessed segment so it climbs the hierarchy ahead of its read.
		if succ >= 0 && succ != idx && a.cfg.SeqBoost > 0 {
			a.boost(seg.ID{File: ev.File, Index: succ}, ts, fileSize, false, 0, c)
		}
	}

	// Learn the predecessor link from the last segment of the stream's
	// previous read to the first segment of this one.
	a.learnLink(ev.File, prev, first, c)

	// Stream readahead: the segments beyond a detected stream get the same
	// anticipatory weight before anything has been learned about them, and
	// rank with their reader: a segment about to be read is worth at least
	// what the reader's read just scored.
	if hintFrom < hintTo {
		a.ctr.hints.Add(hintTo - hintFrom)
		for idx := hintFrom; idx < hintTo; idx++ {
			a.boost(seg.ID{File: ev.File, Index: idx}, ts, fileSize, true, top, c)
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
// carries at least floor as its score; the stored record keeps Eq. (1).
//
//hfetch:hotpath
func (a *Auditor) boost(id seg.ID, ts time.Time, fileSize int64, ahead bool, floor float64, c *cycle) {
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
	c.ups = append(c.ups, Update{ID: id, Score: max(sc, floor), Size: size, Ahead: ahead})
}

func (a *Auditor) handleWrite(ev events.Event) {
	a.ctr.invalidations.Add(1)
	// Consistency: a write from any application invalidates prefetched
	// data for the file. Mappings are cleared by the engine (which owns
	// the tier residents); statistics survive, the data does not.
	a.invalidate(ev.File)
}

// ---- queries ----

// SegmentRec returns a snapshot of the stats record for id: a copy
// taken under the record's shard lock.
func (a *Auditor) SegmentRec(id seg.ID) (*Rec, bool) {
	var snap *Rec
	ok, err := a.stats.ViewKey(dhm.Key(id), func(v any) {
		r := *v.(*Rec)
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
