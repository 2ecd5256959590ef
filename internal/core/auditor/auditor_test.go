package auditor

import (
	"sync"
	"testing"
	"time"

	"hfetch/internal/core/heatmap"
	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
	"hfetch/internal/dhm"
	"hfetch/internal/events"
)

type recordingSink struct {
	mu          sync.Mutex
	updates     []Update
	invalidated []string
}

func (r *recordingSink) ScoreUpdated(u Update) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.updates = append(r.updates, u)
}

func (r *recordingSink) FileInvalidated(f string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.invalidated = append(r.invalidated, f)
}

func (r *recordingSink) snapshot() ([]Update, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Update(nil), r.updates...), append([]string(nil), r.invalidated...)
}

func newAuditor(t *testing.T, cfg Config) (*Auditor, *recordingSink) {
	t.Helper()
	if cfg.Node == "" {
		cfg.Node = "n0"
	}
	stats := dhm.New(dhm.Config{Name: "stats", Self: "n0"}, nil)
	maps := dhm.New(dhm.Config{Name: "maps", Self: "n0"}, nil)
	a := New(cfg, stats, maps)
	sink := &recordingSink{}
	a.SetSink(sink)
	return a, sink
}

func readEv(file string, off, ln int64) events.Event {
	return events.Event{Op: events.OpRead, File: file, Offset: off, Length: ln, Time: time.Now()}
}

func TestReadEventUpdatesStats(t *testing.T) {
	a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	a.StartEpoch("f", 1000)
	a.HandleEvent(readEv("f", 0, 100))
	rec, ok := a.SegmentRec(seg.ID{File: "f", Index: 0})
	if !ok || rec.Stats.K != 1 {
		t.Fatalf("rec = %+v %v, want K=1", rec, ok)
	}
	if rec.Size != 100 {
		t.Fatalf("Size = %d, want 100", rec.Size)
	}
	ups, _ := sink.snapshot()
	if len(ups) != 1 || ups[0].ID.Index != 0 || ups[0].Score <= 0 {
		t.Fatalf("updates = %+v", ups)
	}
}

func TestReadSpanningSegmentsUpdatesAll(t *testing.T) {
	a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100), SeqBoost: -1})
	a.StartEpoch("f", 1000)
	a.HandleEvent(readEv("f", 50, 200)) // covers segments 0,1,2
	for i := int64(0); i <= 2; i++ {
		if _, ok := a.SegmentRec(seg.ID{File: "f", Index: i}); !ok {
			t.Fatalf("segment %d not recorded", i)
		}
	}
	ups, _ := sink.snapshot()
	if len(ups) != 3 {
		t.Fatalf("updates = %d, want 3", len(ups))
	}
}

func TestLastSegmentSizeClipped(t *testing.T) {
	a, _ := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	a.StartEpoch("f", 250)
	a.HandleEvent(readEv("f", 200, 50)) // segment 2: bytes 200..250
	rec, _ := a.SegmentRec(seg.ID{File: "f", Index: 2})
	if rec.Size != 50 {
		t.Fatalf("clipped size = %d, want 50", rec.Size)
	}
}

func TestSequencingLearnsLinkAndBoosts(t *testing.T) {
	a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100), SeqBoost: 0.5})
	a.StartEpoch("f", 1000)
	// First pass: reads of segment 0 then 1 teach the 0 -> 1 link.
	a.HandleEvent(readEv("f", 0, 100))
	a.HandleEvent(readEv("f", 100, 100))
	rec0, _ := a.SegmentRec(seg.ID{File: "f", Index: 0})
	if rec0.Succ != 1 {
		t.Fatalf("succ of seg 0 = %d, want 1", rec0.Succ)
	}
	rec1, _ := a.SegmentRec(seg.ID{File: "f", Index: 1})
	if rec1.Stats.Refs < 2 {
		t.Fatalf("refs of seg 1 = %d, want >= 2 (link learned)", rec1.Stats.Refs)
	}
	// Second pass: re-reading segment 0 must boost segment 1's score.
	before := a.ScoreOf(seg.ID{File: "f", Index: 1}, time.Now())
	a.HandleEvent(readEv("f", 0, 100))
	after := a.ScoreOf(seg.ID{File: "f", Index: 1}, time.Now())
	if after <= before {
		t.Fatalf("successor not boosted: before=%v after=%v", before, after)
	}
	// And the boost must have emitted an update for segment 1.
	ups, _ := sink.snapshot()
	found := false
	for _, u := range ups[3:] { // skip the first three reads' own updates
		if u.ID.Index == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no update emitted for boosted successor")
	}
}

func TestSeqBoostDisabled(t *testing.T) {
	a, _ := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100), SeqBoost: -1})
	a.StartEpoch("f", 1000)
	a.HandleEvent(readEv("f", 0, 100))
	a.HandleEvent(readEv("f", 100, 100))
	rec0, _ := a.SegmentRec(seg.ID{File: "f", Index: 0})
	if rec0.Succ != -1 {
		t.Fatalf("sequencing should be disabled, succ = %d", rec0.Succ)
	}
}

func TestWriteEventInvalidates(t *testing.T) {
	a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	a.StartEpoch("f", 1000)
	a.HandleEvent(events.Event{Op: events.OpWrite, File: "f", Offset: 0, Length: 10, Time: time.Now()})
	_, inv := sink.snapshot()
	if len(inv) != 1 || inv[0] != "f" {
		t.Fatalf("invalidations = %v", inv)
	}
	c := a.Counters()
	if c.Writes != 1 || c.Invalidations != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestEpochRefCounting(t *testing.T) {
	a, _ := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	if !a.StartEpoch("f", 100) {
		t.Fatal("first StartEpoch must open")
	}
	if a.StartEpoch("f", 100) {
		t.Fatal("second StartEpoch must not open")
	}
	if a.EndEpoch("f") {
		t.Fatal("first EndEpoch of two must not close")
	}
	if !a.EndEpoch("f") {
		t.Fatal("last EndEpoch must close")
	}
	if a.EpochOpen("f") {
		t.Fatal("epoch should be closed")
	}
	if a.EndEpoch("ghost") {
		t.Fatal("ending unknown epoch must be a no-op")
	}
}

func TestMappingCRUD(t *testing.T) {
	a, _ := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	id := seg.ID{File: "f", Index: 3}
	if _, _, ok := a.Mapping(id); ok {
		t.Fatal("unmapped segment must report !ok")
	}
	a.SetMapping(id, "ram")
	node, tier, ok := a.Mapping(id)
	if !ok || tier != "ram" || node != "n0" {
		t.Fatalf("Mapping = %q %q %v", node, tier, ok)
	}
	a.DeleteMapping(id)
	if _, _, ok := a.Mapping(id); ok {
		t.Fatal("mapping must be gone")
	}
}

func TestHeatmapPersistAndSeed(t *testing.T) {
	store, err := heatmap.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Segmenter: seg.NewSegmenter(100),
		Score:     score.Params{P: 2, Unit: time.Minute}, // slow decay for the test
		Heatmaps:  store,
	}
	a1, _ := newAuditor(t, cfg)
	a1.StartEpoch("f", 1000)
	a1.HandleEvent(readEv("f", 0, 100))
	a1.HandleEvent(readEv("f", 0, 100))
	a1.HandleEvent(readEv("f", 100, 100))
	if !a1.EndEpoch("f") {
		t.Fatal("epoch must close")
	}
	h, err := store.Load("f")
	if err != nil || h == nil || h.Len() < 2 {
		t.Fatalf("heatmap = %+v %v", h, err)
	}

	// A fresh auditor (fresh cluster state) reloads the heatmap on epoch
	// start and emits pre-placement updates: server push before any read.
	a2, sink2 := newAuditor(t, cfg)
	a2.StartEpoch("f", 1000)
	ups, _ := sink2.snapshot()
	if len(ups) == 0 {
		t.Fatal("heatmap seeding must emit score updates before any read")
	}
	for _, u := range ups {
		if u.Score <= 0 || u.Size <= 0 {
			t.Fatalf("bad seeded update %+v", u)
		}
	}
	if a2.ScoreOf(seg.ID{File: "f", Index: 0}, time.Now()) <= 0 {
		t.Fatal("seeded segment must have positive score")
	}
}

func TestSeedDoesNotClobberLiveStats(t *testing.T) {
	store, _ := heatmap.NewStore(t.TempDir())
	cfg := Config{Segmenter: seg.NewSegmenter(100), Heatmaps: store,
		Score: score.Params{P: 2, Unit: time.Minute}}
	a, _ := newAuditor(t, cfg)
	a.StartEpoch("f", 1000)
	a.HandleEvent(readEv("f", 0, 100))
	a.EndEpoch("f")

	// Accumulate live stats, then re-open (heatmap seed must not reset K).
	a.StartEpoch("f", 1000)
	a.HandleEvent(readEv("f", 0, 100))
	rec, _ := a.SegmentRec(seg.ID{File: "f", Index: 0})
	if rec.Stats.K != 2 {
		t.Fatalf("K = %d, want 2 (live stats preserved)", rec.Stats.K)
	}
}

func TestCountersAccumulate(t *testing.T) {
	a, _ := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	a.StartEpoch("f", 1000)
	a.HandleEvent(readEv("f", 0, 100))
	a.HandleEvent(readEv("f", 100, 100))
	a.HandleEvent(events.Event{Op: events.OpCapacity, Tier: "ram", Free: 10})
	c := a.Counters()
	if c.Events != 3 || c.Reads != 2 || c.SegmentsSeen != 2 || c.Hints != 0 {
		t.Fatalf("counters = %+v", c)
	}
	// The third in-order read is hinted six segments ahead: records the
	// auditor has seen, reads the application has not made.
	a.HandleEvent(readEv("f", 200, 100))
	c = a.Counters()
	if c.Events != 4 || c.Reads != 3 || c.SegmentsSeen != 3+6 || c.Hints != 6 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestConcurrentReadEvents(t *testing.T) {
	a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	a.StartEpoch("f", 100000)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				off := int64((w*per + i) % 100 * 100)
				a.HandleEvent(readEv("f", off, 100))
			}
		}(w)
	}
	wg.Wait()
	// Total K across segments equals total reads.
	var totalK int64
	for i := int64(0); i < 100; i++ {
		if rec, ok := a.SegmentRec(seg.ID{File: "f", Index: i}); ok {
			totalK += rec.Stats.K
		}
	}
	if totalK != workers*per {
		t.Fatalf("sum K = %d, want %d", totalK, workers*per)
	}
	ups, _ := sink.snapshot()
	if len(ups) < workers*per {
		t.Fatalf("updates = %d, want >= %d", len(ups), workers*per)
	}
}

func TestZeroLengthReadIgnored(t *testing.T) {
	a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	a.StartEpoch("f", 100)
	a.HandleEvent(readEv("f", 0, 0))
	ups, _ := sink.snapshot()
	if len(ups) != 0 {
		t.Fatalf("zero-length read emitted updates: %+v", ups)
	}
}

func TestLearnerIntegration(t *testing.T) {
	store, _ := heatmap.NewStore(t.TempDir())
	learner := score.NewLearned(0.1, time.Second)
	a, sink := newAuditor(t, Config{
		Segmenter: seg.NewSegmenter(100),
		Score:     score.Params{P: 2, Unit: time.Minute},
		Heatmaps:  store,
		Learner:   learner,
	})
	a.StartEpoch("f", 1000)
	// Segment 0 re-accessed repeatedly (positives), segments 1..5 once.
	for i := 0; i < 10; i++ {
		a.HandleEvent(readEv("f", 0, 100))
	}
	for idx := int64(1); idx <= 5; idx++ {
		a.HandleEvent(readEv("f", idx*100, 100))
	}
	a.EndEpoch("f") // one-shot segments become negative examples
	pos, neg := learner.Examples()
	if pos == 0 || neg == 0 {
		t.Fatalf("learner examples = %d/%d, want both > 0", pos, neg)
	}
	ups, _ := sink.snapshot()
	if len(ups) == 0 {
		t.Fatal("no updates emitted")
	}
	for _, u := range ups {
		if u.Score < 0 {
			t.Fatalf("blended score negative: %+v", u)
		}
	}
}

func TestSweepRemovesColdClosedStats(t *testing.T) {
	a, _ := newAuditor(t, Config{
		Segmenter: seg.NewSegmenter(100),
		Score:     score.Params{P: 2, Unit: time.Millisecond}, // fast decay
	})
	a.StartEpoch("hot", 1000)
	a.StartEpoch("cold", 1000)
	a.HandleEvent(readEv("hot", 0, 100))
	a.HandleEvent(readEv("cold", 0, 100))
	a.HandleEvent(readEv("cold", 100, 100))
	a.HandleEvent(readEv("cold", 200, 100)) // hints segments 3..8
	a.EndEpoch("cold")                      // cold's epoch closes; hot stays open

	// Wait for the scores to decay well below the floor.
	time.Sleep(30 * time.Millisecond)
	removed := a.Sweep(time.Now(), 0.01)
	if removed != 3+6 {
		t.Fatalf("removed = %d, want cold's 3 read and 6 hinted segments", removed)
	}
	if _, ok := a.SegmentRec(seg.ID{File: "cold", Index: 8}); ok {
		t.Fatal("a hinted, never read record must be gone")
	}
	if _, ok := a.SegmentRec(seg.ID{File: "cold", Index: 0}); ok {
		t.Fatal("cold stats must be gone")
	}
	if _, ok := a.SegmentRec(seg.ID{File: "hot", Index: 0}); !ok {
		t.Fatal("open-epoch stats must survive the sweep")
	}
}

func TestSweepSparesMappedSegments(t *testing.T) {
	a, _ := newAuditor(t, Config{
		Segmenter: seg.NewSegmenter(100),
		Score:     score.Params{P: 2, Unit: time.Millisecond},
	})
	a.StartEpoch("f", 1000)
	a.HandleEvent(readEv("f", 0, 100))
	a.EndEpoch("f")
	a.SetMapping(seg.ID{File: "f", Index: 0}, "ram") // resident somewhere
	time.Sleep(20 * time.Millisecond)
	if removed := a.Sweep(time.Now(), 0.01); removed != 0 {
		t.Fatalf("removed = %d, want 0 (segment is resident)", removed)
	}
	if _, ok := a.SegmentRec(seg.ID{File: "f", Index: 0}); !ok {
		t.Fatal("mapped segment stats must survive")
	}
}
