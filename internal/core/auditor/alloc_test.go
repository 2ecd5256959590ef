package auditor

import (
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

// TestHandleBatchAllocBudget: what an event still allocates is its
// copy-on-write records, not keys, op arguments or closures. A random
// read copies up to four (access, boost of the known successor, the new
// link, the new reference), a sequential one with its link learned two
// (access, boost).
func TestHandleBatchAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name       string
		sequential bool
		budget     float64
	}{
		{"random", false, 5},
		{"sequential", true, 3},
	} {
		a, batches := warmBatches(t, c.sequential)
		next := 0
		perBatch := testing.AllocsPerRun(len(batches)*4, func() {
			a.HandleBatch(batches[next%len(batches)])
			next++
		})
		perEvent := perBatch / batchLen
		t.Logf("%s reads: %.2f allocs/event", c.name, perEvent)
		if perEvent > c.budget {
			t.Errorf("%s reads: HandleBatch costs %.2f allocs/event, budget %.0f", c.name, perEvent, c.budget)
		}
		if h := a.Counters().Hints; c.sequential != (h > 0) {
			t.Errorf("%s reads: %d hints", c.name, h)
		}
	}
}

// TestColdSequentialAllocBudget: a first access costs four objects with
// or without the detector (the record's copy, its history, the new link,
// the new reference); a segment hinted for the first time costs its
// record and its share of the hash map's growth. The hints are counted,
// so that a per-event cost cannot hide among them.
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
	if budget := 4*batchLen + 1.5*hints; perBatch > budget {
		t.Errorf("a cold batch costs %.0f allocs, budget 4 per event + 1.5 per hinted segment = %.0f", perBatch, budget)
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
