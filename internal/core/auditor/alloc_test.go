package auditor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/dhm"
	"hfetch/internal/events"
)

// discardSink is a BatchSink that keeps nothing, so what a measurement
// counts is the auditor's own work.
type discardSink struct{ n int }

func (d *discardSink) ScoreUpdated(Update)    { d.n++ }
func (d *discardSink) FileInvalidated(string) {}
func (d *discardSink) ScoreBatch(u []Update)  { d.n += len(u) }

const (
	batchLen  = 256
	batchSegs = 4096
	batchFile = "/data/run-07/part.h5"
)

// warmBatches returns an auditor over local maps and 16 batches of 256
// single-segment reads of one 4096-segment file, random or sequential
// (wrapping), already played twice: every record exists and, for the
// sequential stream, every link is learned and every hint issued.
func warmBatches(tb testing.TB, sequential bool) (*Auditor, [][]events.Event) {
	tb.Helper()
	a, batches := coldBatches(tb, sequential)
	for pass := 0; pass < 2; pass++ {
		for _, evs := range batches {
			a.HandleBatch(evs)
		}
	}
	return a, batches
}

// coldBatches is warmBatches before anything was played: a sequential
// reader of it is detected, hinted ahead and teaches every link.
func coldBatches(tb testing.TB, sequential bool) (*Auditor, [][]events.Event) {
	tb.Helper()
	const segSize = 64 << 10
	stats := dhm.New(dhm.Config{Name: "stats", Self: "n0"}, nil)
	maps := dhm.New(dhm.Config{Name: "maps", Self: "n0"}, nil)
	a := New(Config{Node: "n0", Segmenter: seg.NewSegmenter(segSize)}, stats, maps)
	a.SetSink(&discardSink{})
	a.StartEpoch(batchFile, batchSegs*segSize)
	rng := rand.New(rand.NewSource(1))
	base := time.Unix(1700000000, 0)
	batches := make([][]events.Event, batchSegs/batchLen)
	for b := range batches {
		batches[b] = make([]events.Event, batchLen)
		for i := range batches[b] {
			idx := int64(b*batchLen + i)
			if !sequential {
				idx = rng.Int63n(batchSegs)
			}
			batches[b][i] = events.Event{Op: events.OpRead, File: batchFile, Offset: idx * segSize, Length: segSize,
				Time: base.Add(time.Duration(b*batchLen+i) * time.Millisecond)}
		}
	}
	return a, batches
}

// TestHandleBatchAllocBudget: an event over records that exist mutates
// them in place with pooled scratch. What a record still allocates is
// its history growing toward the window — six arrays over its life, the
// last at its 17th access — so the budget is taken once every segment
// has been read about a window's worth of times.
func TestHandleBatchAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name       string
		sequential bool
		budget     float64
	}{
		{"random", false, 0.1},
		{"sequential", true, 0.1},
	} {
		a, batches := warmBatches(t, c.sequential)
		for pass := 0; pass < a.model.Window(); pass++ {
			for _, evs := range batches {
				a.HandleBatch(evs)
			}
		}
		next := 0
		perBatch := testing.AllocsPerRun(len(batches)*4, func() {
			a.HandleBatch(batches[next%len(batches)])
			next++
		})
		perEvent := perBatch / batchLen
		t.Logf("%s reads: %.3f allocs/event", c.name, perEvent)
		if perEvent > c.budget {
			t.Errorf("%s reads: HandleBatch costs %.2f allocs/event, budget %.1f", c.name, perEvent, c.budget)
		}
		if h := a.Counters().Hints; c.sequential != (h > 0) {
			t.Errorf("%s reads: %d hints", c.name, h)
		}
	}
}

// TestColdSequentialAllocBudget: a first access costs its history (the
// record is there since the segment was hinted, the link and the
// reference change it in place); a segment hinted for the first time
// costs its record, and the hash map's growth is shared among them. The
// hints are counted, so that a per-event cost cannot hide among them.
func TestColdSequentialAllocBudget(t *testing.T) {
	a, batches := coldBatches(t, true)
	next, hints0 := 0, int64(0)
	perBatch := testing.AllocsPerRun(len(batches)-1, func() {
		if next == 1 { // the warm-up run is over
			hints0 = a.Counters().Hints
		}
		a.HandleBatch(batches[next])
		next++
	})
	hints := float64(a.Counters().Hints-hints0) / float64(len(batches)-1)
	t.Logf("cold sequential reads: %.0f allocs and %.1f newly hinted segments per %d-event batch", perBatch, hints, batchLen)
	if total := a.Counters().Hints; total != batchSegs-streamArm {
		t.Errorf("%d hints over the file, want every segment after the first %d once: %d", total, streamArm, batchSegs-streamArm)
	}
	if budget := 2*batchLen + hints; perBatch > budget {
		t.Errorf("a cold batch costs %.0f allocs, budget 2 per event + 1 per hinted segment = %.0f", perBatch, budget)
	}
}

// TestWarmOpsDoNotAllocate: one round of the event path's ops on a
// record that exists — an access, the boost of its successor, a link
// check — answers into the caller's buffer and allocates nothing.
func TestWarmOpsDoNotAllocate(t *testing.T) {
	a, _ := warmBatches(t, false)
	for i := 0; i < a.model.Window(); i++ { // fill the history: growing it is the one allocation left
		a.HandleEvent(events.Event{Op: events.OpRead, File: batchFile, Length: 1, Time: time.Unix(1700000100, int64(i))})
	}
	k0, k1 := dhm.Key{File: batchFile, Index: 0}, dhm.Key{File: batchFile, Index: 1}
	var arg [16]byte
	var res [24]byte
	ts := time.Unix(1700000200, 0)
	if n := testing.AllocsPerRun(1000, func() {
		ts = ts.Add(time.Millisecond)
		binary.BigEndian.PutUint64(arg[0:8], uint64(ts.UnixNano()))
		binary.BigEndian.PutUint64(arg[8:16], 64<<10)
		if out, err := a.stats.ApplyResult(k0, opAccess, arg[:], res[:0]); err != nil || len(out) != 24 {
			t.Fatalf("access answered %x, %v", out, err)
		}
		binary.BigEndian.PutUint64(arg[8:16], math.Float64bits(0.5))
		if out, err := a.stats.ApplyResult(k1, opRef, arg[:], res[:0]); err != nil || len(out) != 16 {
			t.Fatalf("ref answered %x, %v", out, err)
		}
		binary.BigEndian.PutUint64(arg[0:8], 1)
		if out, err := a.stats.ApplyResult(k0, opLink, arg[:8], res[:0]); err != nil || len(out) > 1 {
			t.Fatalf("link answered %x, %v", out, err)
		}
	}); n != 0 {
		t.Fatalf("a warm access + ref + link round allocates %.1f times", n)
	}
}

// retainingSink breaks BatchSink's contract: it keeps the slice.
type retainingSink struct {
	discardSink
	kept   []Update
	copied []Update
}

func (r *retainingSink) ScoreBatch(ups []Update) {
	r.kept, r.copied = ups, append([]Update(nil), ups...)
}

// TestScoreBatchSliceBelongsToTheCycle: the slice a BatchSink is handed
// is the drain cycle's scratch — cleared once ScoreBatch returns and
// reused by the next cycle — so a sink that keeps it instead of copying
// out is left holding nothing.
func TestScoreBatchSliceBelongsToTheCycle(t *testing.T) {
	a, batches := coldBatches(t, false)
	sink := &retainingSink{}
	a.SetSink(sink)
	a.HandleBatch(batches[0])
	if len(sink.copied) < batchLen {
		t.Fatalf("%d updates delivered for %d events", len(sink.copied), batchLen)
	}
	for i, u := range sink.kept {
		if u != (Update{}) {
			t.Fatalf("update %d of a retained slice survived its cycle: %+v (delivered as %+v)", i, u, sink.copied[i])
		}
	}
	first := sink.copied
	a.HandleBatch(batches[1])
	if len(sink.copied) < batchLen || sink.copied[0] == first[0] {
		t.Fatalf("the next cycle delivered %d updates, the first %+v", len(sink.copied), sink.copied[0])
	}
}

func TestMappingDoesNotAllocate(t *testing.T) {
	a, _ := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	id := seg.ID{File: batchFile, Index: 3}
	a.SetMapping(id, "ram")
	if n := testing.AllocsPerRun(1000, func() {
		if node, tier, ok := a.Mapping(id); !ok || node != "n0" || tier != "ram" {
			t.Fatalf("Mapping = %q, %q, %v", node, tier, ok)
		}
	}); n != 0 {
		t.Fatalf("Mapping of a locally owned segment allocates %.1f times", n)
	}
}

func BenchmarkHandleBatch(b *testing.B) {
	for _, c := range []struct {
		name       string
		sequential bool
		cold       bool
	}{{"random", false, false}, {"sequential", true, false}, {"cold-sequential", true, true}} {
		b.Run(c.name, func(b *testing.B) {
			build := warmBatches
			if c.cold {
				build = coldBatches
			}
			a, batches := build(b, c.sequential)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			hints := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.cold && i > 0 && i%len(batches) == 0 {
					// One pass over the file per auditor: every batch is a
					// first sight of its segments.
					b.StopTimer()
					hints += a.Counters().Hints
					a, batches = coldBatches(b, true)
					b.StartTimer()
				}
				a.HandleBatch(batches[i%len(batches)])
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			evs := float64(b.N) * batchLen
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/evs, "ns/event")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/evs, "allocs/event")
			if c.cold {
				b.ReportMetric(float64(hints+a.Counters().Hints)/evs, "hints/event")
			}
		})
	}
}

var benchTier string

func BenchmarkMapping(b *testing.B) {
	a, _ := warmBatches(b, true)
	for i := int64(0); i < batchSegs; i++ {
		a.SetMapping(seg.ID{File: batchFile, Index: i}, "ram")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, benchTier, _ = a.Mapping(seg.ID{File: batchFile, Index: int64(i % batchSegs)})
	}
}
