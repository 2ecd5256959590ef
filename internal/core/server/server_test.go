package server

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hfetch/internal/core/auditor"
	"hfetch/internal/core/placement"
	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
	"hfetch/internal/dhm"
	"hfetch/internal/events"
	"hfetch/internal/invariant"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

func newServer(t *testing.T, cfg Config) (*Server, *pfs.FS) {
	t.Helper()
	fs := pfs.New(nil)
	ram := tiers.NewStore("ram", 1<<20, nil)
	nvme := tiers.NewStore("nvme", 1<<20, nil)
	hier := tiers.NewHierarchy(ram, nvme)
	stats, maps := NewLocalMaps("n0")
	srv, err := New(cfg, fs, hier, stats, maps)
	if err != nil {
		t.Fatal(err)
	}
	return srv, fs
}

func TestUnwatchedEventsIgnored(t *testing.T) {
	srv, fs := newServer(t, Config{SegmentSize: 1024, Engine: placement.Config{UpdateThreshold: 1}})
	fs.Create("f", 8192)
	srv.Start()
	defer srv.Stop()
	// No epoch started: the event must not reach the auditor.
	srv.PostEvent(events.Event{Op: events.OpRead, File: "f", Offset: 0, Length: 1024, Time: time.Now()})
	srv.Flush()
	if got := srv.Auditor().Counters().Reads; got != 0 {
		t.Fatalf("unwatched event processed: reads=%d", got)
	}
	srv.StartEpoch("f", 8192)
	srv.PostEvent(events.Event{Op: events.OpRead, File: "f", Offset: 0, Length: 1024, Time: time.Now()})
	srv.Flush()
	if got := srv.Auditor().Counters().Reads; got != 1 {
		t.Fatalf("watched event not processed: reads=%d", got)
	}
}

func TestEventsDrivePlacement(t *testing.T) {
	srv, fs := newServer(t, Config{SegmentSize: 1024, Engine: placement.Config{UpdateThreshold: 1}})
	fs.Create("f", 8192)
	srv.Start()
	defer srv.Stop()
	srv.StartEpoch("f", 8192)
	for i := int64(0); i < 8; i++ {
		srv.PostEvent(events.Event{Op: events.OpRead, File: "f", Offset: i * 1024, Length: 1024, Time: time.Now()})
	}
	srv.Flush()
	if got := srv.Hierarchy().Tier(0).Len(); got != 8 {
		t.Fatalf("resident segments = %d, want 8 (server-push placement)", got)
	}
	id := seg.ID{File: "f", Index: 0}
	node, tier, ok := srv.Lookup(id)
	if !ok || tier != "ram" || node != "node0" {
		t.Fatalf("Lookup = %q %q %v", node, tier, ok)
	}
	buf := make([]byte, 100)
	n, tier, ok := srv.ReadPrefetched(id, 0, buf)
	if !ok || n != 100 || tier != "ram" {
		t.Fatalf("ReadPrefetched = %d %q %v", n, tier, ok)
	}
}

// TestReadFromUnknownTier: a mapping naming a tier this node does not
// have, or a tier that no longer holds the segment, is a miss.
func TestReadFromUnknownTier(t *testing.T) {
	srv, _ := newServer(t, Config{})
	id := seg.ID{File: "f"}
	for _, tier := range []string{"zzz", "ram"} {
		srv.Auditor().SetMapping(id, tier)
		if _, _, ok := srv.ReadPrefetched(id, 0, make([]byte, 1)); ok {
			t.Fatalf("a mapping to %q with nothing resident must report !ok", tier)
		}
	}
}

func TestHeatmapAcrossServerRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "heat")
	mk := func() (*Server, *pfs.FS) {
		return newServer(t, Config{
			SegmentSize: 1024,
			HeatDir:     dir,
			Engine:      placement.Config{UpdateThreshold: 1},
			SeqBoost:    0.5,
		})
	}
	srv1, fs1 := mk()
	fs1.Create("f", 8192)
	srv1.Start()
	srv1.StartEpoch("f", 8192)
	for i := int64(0); i < 8; i++ {
		srv1.PostEvent(events.Event{Op: events.OpRead, File: "f", Offset: i * 1024, Length: 1024, Time: time.Now()})
	}
	srv1.Flush()
	srv1.EndEpoch("f") // persists the heatmap
	srv1.Stop()

	// A brand-new server (fresh maps) pre-places from the stored heatmap
	// as soon as the epoch starts: server push before any read.
	srv2, fs2 := mk()
	fs2.Create("f", 8192)
	srv2.Start()
	defer srv2.Stop()
	srv2.StartEpoch("f", 8192)
	srv2.Flush()
	if got := srv2.Hierarchy().TotalUsed(); got == 0 {
		t.Fatal("heatmap-driven pre-placement did not happen")
	}
}

func TestStartStopIdempotent(t *testing.T) {
	srv, _ := newServer(t, Config{})
	srv.Start()
	srv.Start()
	srv.Stop()
	srv.Stop()
}

func TestDefaults(t *testing.T) {
	srv, _ := newServer(t, Config{})
	if srv.Segmenter().Size() != seg.DefaultSize {
		t.Fatalf("default segment size = %d", srv.Segmenter().Size())
	}
	if srv.FS() == nil || srv.Engine() == nil || srv.Monitor() == nil || srv.IOClient() == nil {
		t.Fatal("accessors must be non-nil")
	}
}

func TestPersistentMapsSurviveRestart(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "meta.wal")
	stats, _, w, err := NewMaps("n0", nil, nil, nil, wal)
	if err != nil {
		t.Fatal(err)
	}
	fs := pfs.New(nil)
	hier := tiers.NewHierarchy(tiers.NewStore("ram", 1<<20, nil))
	maps2 := dhmNewForTest()
	srv, err := New(Config{SegmentSize: 1024,
		Score:  score.Params{P: 2, Unit: time.Minute},
		Engine: placement.Config{UpdateThreshold: 1}}, fs, hier, stats, maps2)
	if err != nil {
		t.Fatal(err)
	}
	fs.Create("f", 8192)
	srv.Start()
	srv.StartEpoch("f", 8192)
	srv.PostEvent(events.Event{Op: events.OpRead, File: "f", Offset: 0, Length: 1024, Time: time.Now()})
	srv.Flush()
	srv.Stop()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// "Power-down": a brand-new process replays the WAL and sees the
	// accumulated segment statistics.
	stats2, _, w2, err := NewMaps("n0", nil, nil, nil, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if stats2.LocalLen() == 0 {
		t.Fatal("replayed stats map is empty")
	}
	v, ok, _ := stats2.GetKey(dhm.Key{File: "f", Index: 0})
	if !ok {
		t.Fatalf("segment record missing after replay; keys=%v", stats2.LocalKeys())
	}
	if rec := v.(*auditor.Rec); rec.Stats.K != 1 {
		t.Fatalf("restored K = %d, want 1", rec.Stats.K)
	}
}

// TestPersistentMapsReplayVersion1Log: a log written before keys were
// typed (internal/dhm/testdata/wal_v1.log: three reads of data/f at 1 KiB
// segments 0, 1, 0, keys at rest as "s|data/f|N") restores its statistics
// where the auditor now looks for them.
func TestPersistentMapsReplayVersion1Log(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("..", "..", "dhm", "testdata", "wal_v1.log"))
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(t.TempDir(), "meta.wal")
	if err := os.WriteFile(wal, old, 0o644); err != nil {
		t.Fatal(err)
	}
	stats, maps, w, err := NewMaps("n0", nil, nil, nil, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv, err := New(Config{SegmentSize: 1024}, pfs.New(nil), tiers.NewHierarchy(tiers.NewStore("ram", 1<<20, nil)), stats, maps)
	if err != nil {
		t.Fatal(err)
	}
	for idx, wantK := range []int64{2, 1} {
		rec, ok := srv.Auditor().SegmentRec(seg.ID{File: "data/f", Index: int64(idx)})
		if !ok {
			t.Fatalf("segment %d of data/f missing after replaying a version 1 log; keys=%v", idx, stats.LocalKeys())
		}
		if rec.Stats.K != wantK {
			t.Fatalf("segment %d restored with K = %d, want %d", idx, rec.Stats.K, wantK)
		}
	}
	if rec, _ := srv.Auditor().SegmentRec(seg.ID{File: "data/f", Index: 0}); rec.Succ != 1 {
		t.Fatalf("segment 0 restored with successor %d, want 1", rec.Succ)
	}
	if v, ok, _ := stats.Get("plain-key"); !ok || v.(int64) != 7 {
		t.Fatalf("plain string key restored as %v, %v", v, ok)
	}
}

// TestReadPrefetchedDoesNotAllocate: a hit on a resident segment builds
// no key and no buffer between the mapping lookup and the tier, and
// counting it allocates nothing whether telemetry is off or on with
// lifecycle tracing and every read timed.
func TestReadPrefetchedDoesNotAllocate(t *testing.T) {
	if invariant.Enabled {
		t.Skip("allocation counts are for the production build")
	}
	traced := telemetry.NewRegistry()
	traced.EnableLifecycle(0)
	traced.SetTimeSampling(1)
	for _, tc := range []struct {
		name string
		reg  *telemetry.Registry
	}{
		{"no registry", nil},
		{"lifecycle", traced},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, fs := newServer(t, Config{SegmentSize: 1024, Engine: placement.Config{UpdateThreshold: 1}, Telemetry: tc.reg})
			fs.Create("f", 8192)
			srv.Start()
			defer srv.Stop()
			srv.StartEpoch("f", 8192)
			srv.PostEvent(events.Event{Op: events.OpRead, File: "f", Offset: 0, Length: 1024, Time: time.Now()})
			srv.Flush()
			id := seg.ID{File: "f", Index: 0}
			p := make([]byte, 1024)
			if _, _, ok := srv.ReadPrefetched(id, 0, p); !ok {
				t.Fatal("segment 0 not resident after its read was audited and placed")
			}
			if n := testing.AllocsPerRun(1000, func() { srv.ReadPrefetched(id, 0, p) }); n != 0 {
				t.Fatalf("ReadPrefetched of a resident segment allocates %.1f times", n)
			}
		})
	}
}

// dhmNewForTest returns a fresh non-persistent map for tests that need
// an independent mapping table.
func dhmNewForTest() *dhm.Map {
	return dhm.New(dhm.Config{Name: "test-maps", Self: "n0"}, nil)
}

func TestRangeViewZeroCopyServe(t *testing.T) {
	srv, fs := newServer(t, Config{SegmentSize: 1024, Engine: placement.Config{UpdateThreshold: 1}})
	const size = int64(8*1024 + 100)
	fs.Create("f", size)
	srv.Start()
	defer srv.Stop()
	srv.StartEpoch("f", size)
	for i := int64(0); i*1024 < size; i++ {
		srv.PostEvent(events.Event{Op: events.OpRead, File: "f", Offset: i * 1024, Length: 1024, Time: time.Now()})
	}
	srv.Flush()

	ref := make([]byte, size)
	if _, _, err := fs.ReadAt("f", 0, ref); err != nil {
		t.Fatal(err)
	}

	// Fully resident range: every chunk comes back pinned, the assembled
	// bytes match the PFS, and the zero-copy ledger grows by the range.
	zc0 := srv.zeroCopy.Load()
	v := srv.OpenRangeView("f", size, 100, 4000)
	dst := make([]byte, 512)
	var got []byte
	for {
		chunk, pinned, err := v.Next(dst)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !pinned {
			t.Fatalf("chunk at %d not pinned despite full residency", len(got))
		}
		if len(chunk) > len(dst) {
			t.Fatalf("chunk %d bytes exceeds dst cap %d (gen-check cadence)", len(chunk), len(dst))
		}
		got = append(got, chunk...)
	}
	if v.Misses() != 0 || v.Hits() == 0 {
		t.Fatalf("hits/misses = %d/%d, want >0/0", v.Hits(), v.Misses())
	}
	if want := v.ZeroCopyBytes(); want != 4000 || srv.zeroCopy.Load()-zc0 != want {
		t.Fatalf("zero-copy bytes = %d (counter delta %d), want 4000", want, srv.zeroCopy.Load()-zc0)
	}
	v.Close()
	if !bytes.Equal(got, ref[100:4100]) {
		t.Fatal("pinned range content does not match PFS reference")
	}

	// Pins survive a racing whole-file invalidation; misses after the
	// drop fall back to the PFS.
	v = srv.OpenRangeView("f", size, 0, size)
	chunk, pinned, err := v.Next(dst)
	if err != nil || !pinned {
		t.Fatalf("first chunk: pinned=%v err=%v", pinned, err)
	}
	keep := chunk
	srv.Hierarchy().DeleteFile("f")
	if !bytes.Equal(keep, ref[:len(keep)]) {
		t.Fatal("held chunk torn by invalidation")
	}
	rest := int64(len(keep))
	for {
		chunk, _, err := v.Next(dst)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(chunk, ref[rest:rest+int64(len(chunk))]) {
			t.Fatalf("post-invalidation bytes diverge at %d", rest)
		}
		rest += int64(len(chunk))
	}
	if rest != size {
		t.Fatalf("served %d bytes, want %d", rest, size)
	}
	v.Close()
}

func TestReadRangeMatchesPFSUnderPartialResidency(t *testing.T) {
	srv, fs := newServer(t, Config{SegmentSize: 1024, Engine: placement.Config{UpdateThreshold: 1}})
	const size = int64(6 * 1024)
	fs.Create("f", size)
	srv.Start()
	defer srv.Stop()
	srv.StartEpoch("f", size)
	// Warm only even segments.
	for i := int64(0); i < 6; i += 2 {
		srv.PostEvent(events.Event{Op: events.OpRead, File: "f", Offset: i * 1024, Length: 1024, Time: time.Now()})
	}
	srv.Flush()

	ref := make([]byte, size)
	if _, _, err := fs.ReadAt("f", 0, ref); err != nil {
		t.Fatal(err)
	}
	v := srv.OpenRangeView("f", size, 0, size)
	defer v.Close()
	dst := make([]byte, size)
	var got []byte
	for {
		chunk, _, err := v.Next(dst)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
	}
	if v.Hits() == 0 || v.Misses() == 0 {
		t.Fatalf("hits/misses = %d/%d, want both nonzero", v.Hits(), v.Misses())
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("mixed hit/miss range diverges from PFS")
	}
}

// TestStallTimeCountsTheWaitOnAFetchInFlight: a read of a segment whose
// fetch is still reading a slow origin waits for it to land, and the wait
// is counted in StallTime, with telemetry off and on.
func TestStallTimeCountsTheWaitOnAFetchInFlight(t *testing.T) {
	for _, reg := range []*telemetry.Registry{nil, telemetry.NewRegistry()} {
		fs := pfs.New(devsim.New(devsim.Profile{Name: "pfs", Latency: 40 * time.Millisecond}, 1))
		hier := tiers.NewHierarchy(tiers.NewStore("ram", 1<<20, nil))
		stats, maps := NewLocalMaps("n0")
		srv, err := New(Config{SegmentSize: 1024, FetchWait: 5 * time.Second, Telemetry: reg,
			Engine: placement.Config{UpdateThreshold: 1}}, fs, hier, stats, maps)
		if err != nil {
			t.Fatal(err)
		}
		fs.Create("f", 8192)
		srv.Start()
		srv.StartEpoch("f", 8192)
		srv.PostEvent(events.Event{Op: events.OpRead, File: "f", Offset: 1024, Length: 1024, Time: time.Now()})
		id := seg.ID{File: "f", Index: 1}
		deadline := time.Now().Add(5 * time.Second)
		for srv.Engine().MoverStats().Outstanding == 0 {
			if time.Now().After(deadline) {
				t.Fatal("no fetch went in flight")
			}
			time.Sleep(100 * time.Microsecond)
		}
		start := time.Now()
		n, _, ok := srv.ReadPrefetched(id, 0, make([]byte, 100))
		took := time.Since(start)
		stalls, rescues := srv.StallStats()
		waited := srv.StallTime()
		srv.Stop()
		if !ok || n != 100 || stalls != 1 || rescues != 1 {
			t.Fatalf("telemetry %v: read %d bytes (ok %v), %d stalls and %d rescues, want a read served after one stall", reg != nil, n, ok, stalls, rescues)
		}
		if waited <= 0 || waited > took {
			t.Fatalf("telemetry %v: StallTime %v for a read that took %v", reg != nil, waited, took)
		}
		t.Logf("telemetry %v: the read waited %v of its %v on the fetch", reg != nil, waited, took)
	}
}
