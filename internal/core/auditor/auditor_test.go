package auditor

import (
	"sync"
	"sync/atomic"
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

func (r *recordingSink) ScoreBatch(ups []Update) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.updates = append(r.updates, ups...)
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

// noDrain is EndEpoch's drain for tests that post through no monitor.
func noDrain() {}

// handle delivers evs to a as one drained batch.
func handle(a *Auditor, evs ...events.Event) { a.HandleBatch(evs) }

func readEv(file string, off, ln int64) events.Event {
	return events.Event{Op: events.OpRead, File: file, Offset: off, Length: ln, Time: time.Now()}
}

func TestReadEventUpdatesStats(t *testing.T) {
	a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	a.StartEpoch("f", 1000)
	handle(a, readEv("f", 0, 100))
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
	handle(a, readEv("f", 50, 200)) // covers segments 0,1,2
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
	handle(a, readEv("f", 200, 50)) // segment 2: bytes 200..250
	rec, _ := a.SegmentRec(seg.ID{File: "f", Index: 2})
	if rec.Size != 50 {
		t.Fatalf("clipped size = %d, want 50", rec.Size)
	}
}

func TestSequencingLearnsLinkAndBoosts(t *testing.T) {
	a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100), SeqBoost: 0.5})
	a.StartEpoch("f", 1000)
	// First pass: reads of segment 0 then 1 teach the 0 -> 1 link.
	handle(a, readEv("f", 0, 100))
	handle(a, readEv("f", 100, 100))
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
	handle(a, readEv("f", 0, 100))
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
	handle(a, readEv("f", 0, 100))
	handle(a, readEv("f", 100, 100))
	rec0, _ := a.SegmentRec(seg.ID{File: "f", Index: 0})
	if rec0.Succ != -1 {
		t.Fatalf("sequencing should be disabled, succ = %d", rec0.Succ)
	}
}

func TestWriteEventInvalidates(t *testing.T) {
	a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	a.StartEpoch("f", 1000)
	handle(a, events.Event{Op: events.OpWrite, File: "f", Offset: 0, Length: 10, Time: time.Now()})
	_, inv := sink.snapshot()
	if len(inv) != 1 || inv[0] != "f" {
		t.Fatalf("invalidations = %v", inv)
	}
	c := a.Counters()
	if c.Writes != 1 || c.Invalidations != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestEpochRefCounting: the epoch table is the watch table. The first
// opener opens a file's epoch, only the last of any number of closers,
// concurrent ones included, closes it, and an unknown close is a no-op.
func TestEpochRefCounting(t *testing.T) {
	a, _ := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	if !a.StartEpoch("f", 100) {
		t.Fatal("first StartEpoch must open")
	}
	if a.StartEpoch("f", 100) {
		t.Fatal("second StartEpoch must not open")
	}
	if a.EndEpoch("f", noDrain) {
		t.Fatal("first EndEpoch of two must not close")
	}
	if !a.EpochOpen("f") {
		t.Fatal("epoch must stay open while a participant remains")
	}
	if !a.EndEpoch("f", noDrain) {
		t.Fatal("last EndEpoch must close")
	}
	if a.EpochOpen("f") {
		t.Fatal("epoch should be closed")
	}
	if a.EndEpoch("f", noDrain) || a.EndEpoch("ghost", noDrain) {
		t.Fatal("ending unknown epoch must be a no-op")
	}

	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.StartEpoch("g", 100)
		}()
	}
	wg.Wait()
	var closed atomic.Int32
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if a.EndEpoch("g", noDrain) {
				closed.Add(1)
			}
		}()
	}
	wg.Wait()
	if closed.Load() != 1 || a.EpochOpen("g") {
		t.Fatalf("%d of 50 concurrent closers closed the epoch (open after: %v), want exactly the last",
			closed.Load(), a.EpochOpen("g"))
	}
}

// TestEndEpochDrainsBeforeClosing: the last closer stops the file's
// events at once, but deletes the epoch and saves the heatmap only after
// drained returns, so events posted before the close are in the saved
// heatmap; a file reopened while its closer drains keeps its epoch, with
// no heatmap loaded or saved.
func TestEndEpochDrainsBeforeClosing(t *testing.T) {
	store, err := heatmap.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Segmenter: seg.NewSegmenter(100), Heatmaps: store,
		Score: score.Params{P: 2, Unit: time.Minute}}
	a, sink := newAuditor(t, cfg)

	// An event posted before the close, still queued when the close
	// begins: drained is where the monitor audits it.
	a.StartEpoch("f", 1000)
	queued := readEv("f", 300, 100)
	if !a.EndEpoch("f", func() {
		if a.EpochOpen("f") {
			t.Error("the last closer must stop the file's events before it drains")
		}
		handle(a, queued)
	}) {
		t.Fatal("last EndEpoch must close")
	}
	h, err := store.Load("f")
	if err != nil || h == nil {
		t.Fatalf("heatmap = %v, %v", h, err)
	}
	found := false
	for _, e := range h.Entries {
		found = found || e.Index == 3
	}
	if !found {
		t.Fatalf("saved heatmap %+v lacks segment 3, read before the close", h.Entries)
	}

	// Reopen while the last closer drains: f's saved heatmap would seed
	// updates if it were loaded, and segment 7, read in this epoch, would
	// be in it if it were saved.
	a.StartEpoch("f", 1000)
	handle(a, readEv("f", 700, 100))
	ups, _ := sink.snapshot()
	seeded := len(ups)
	if a.EndEpoch("f", func() {
		if a.StartEpoch("f", 1000) {
			t.Error("a reopen during the drain must join the closing epoch, not create one")
		}
	}) {
		t.Fatal("an epoch reopened during its drain must not close")
	}
	if !a.EpochOpen("f") {
		t.Fatal("an epoch reopened during its drain must stay open")
	}
	if ups, _ := sink.snapshot(); len(ups) != seeded {
		t.Fatalf("the reopen loaded a heatmap: %d seeded updates, want none", len(ups)-seeded)
	}
	if h, _ := store.Load("f"); h != nil {
		for _, e := range h.Entries {
			if e.Index == 7 {
				t.Fatal("an epoch reopened during its drain saved its heatmap")
			}
		}
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
	handle(a1, readEv("f", 0, 100))
	handle(a1, readEv("f", 0, 100))
	handle(a1, readEv("f", 100, 100))
	if !a1.EndEpoch("f", noDrain) {
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
	handle(a, readEv("f", 0, 100))
	a.EndEpoch("f", noDrain)

	// Accumulate live stats, then re-open (heatmap seed must not reset K).
	a.StartEpoch("f", 1000)
	handle(a, readEv("f", 0, 100))
	rec, _ := a.SegmentRec(seg.ID{File: "f", Index: 0})
	if rec.Stats.K != 2 {
		t.Fatalf("K = %d, want 2 (live stats preserved)", rec.Stats.K)
	}
}

func TestCountersAccumulate(t *testing.T) {
	a, _ := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	a.StartEpoch("f", 1000)
	handle(a, readEv("f", 0, 100))
	handle(a, events.Event{Op: events.OpWrite, File: "f"})
	c := a.Counters()
	if c.Events != 2 || c.Reads != 1 || c.Writes != 1 || c.SegmentsSeen != 1 || c.Hints != 0 {
		t.Fatalf("counters = %+v", c)
	}
	// The second in-order read from segment 0 is hinted four segments
	// ahead: records the auditor has seen, reads the application has not
	// made.
	handle(a, readEv("f", 100, 100))
	c = a.Counters()
	if c.Events != 3 || c.Reads != 2 || c.SegmentsSeen != 2+4 || c.Hints != 4 {
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
				handle(a, readEv("f", off, 100))
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
	handle(a, readEv("f", 0, 0))
	ups, _ := sink.snapshot()
	if len(ups) != 0 {
		t.Fatalf("zero-length read emitted updates: %+v", ups)
	}
}
