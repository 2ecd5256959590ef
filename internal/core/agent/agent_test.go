package agent

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"hfetch/internal/core/placement"
	"hfetch/internal/core/seg"
	"hfetch/internal/core/server"
	"hfetch/internal/devsim"
	"hfetch/internal/events"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// rig builds a single-node in-process HFetch deployment with free
// devices and a fully reactive engine.
type rig struct {
	fs  *pfs.FS
	srv *server.Server
}

func newRig(t *testing.T, ramCap, nvmeCap int64) *rig {
	t.Helper()
	fs := pfs.New(nil)
	ram := tiers.NewStore("ram", ramCap, nil)
	nvme := tiers.NewStore("nvme", nvmeCap, nil)
	hier := tiers.NewHierarchy(ram, nvme)
	stats, maps := server.NewLocalMaps("n0")
	srv, err := server.New(server.Config{
		SegmentSize: 1024,
		Engine:      placement.Config{UpdateThreshold: placement.High},
	}, fs, hier, stats, maps)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return &rig{fs: fs, srv: srv}
}

func TestOpenMissingFileFails(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	a := New(r.srv, r.fs, nil)
	if _, err := a.Open("nope"); err == nil {
		t.Fatal("opening a missing file must fail")
	}
}

func TestFirstReadMissesSecondReadHits(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	r.fs.Create("f", 64*1024)
	a := New(r.srv, r.fs, nil)
	f, err := a.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Hits() != 0 {
		t.Fatal("cold read must miss")
	}
	r.srv.Flush() // let the engine place the just-read segments
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Hits() == 0 {
		t.Fatalf("warm read must hit; stats: %s", a.Stats())
	}
	f.Close()
}

func TestReadDataIntegrityAcrossTiers(t *testing.T) {
	r := newRig(t, 8*1024, 16*1024) // small tiers force mixed hit/miss reads
	const size = 64 * 1024
	r.fs.Create("f", size)
	a := New(r.srv, r.fs, nil)
	f, _ := a.Open("f")
	defer f.Close()

	want := make([]byte, size)
	r.fs.ReadAt("f", 0, want)

	got := make([]byte, size)
	for pass := 0; pass < 3; pass++ {
		for off := 0; off < size; off += 4096 {
			if _, err := f.ReadAt(got[off:off+4096], int64(off)); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: data served from tiers differs from PFS content", pass)
		}
		r.srv.Flush()
	}
	if a.Stats().Hits() == 0 {
		t.Fatal("later passes should have tier hits")
	}
}

func TestReadAtEOFSemantics(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	r.fs.Create("f", 1000)
	a := New(r.srv, r.fs, nil)
	f, _ := a.Open("f")
	defer f.Close()
	buf := make([]byte, 400)
	n, err := f.ReadAt(buf, 800) // short read
	if err != nil || n != 200 {
		t.Fatalf("short read = %d %v, want 200", n, err)
	}
	n, err = f.ReadAt(buf, 2000) // beyond EOF
	if err != nil || n != 0 {
		t.Fatalf("read past EOF = %d %v, want 0", n, err)
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset must error")
	}
}

func TestReadSpanningSegmentsAssembles(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	const size = 16 * 1024
	r.fs.Create("f", size)
	a := New(r.srv, r.fs, nil)
	f, _ := a.Open("f")
	defer f.Close()
	// Warm the cache.
	tmp := make([]byte, size)
	f.ReadAt(tmp, 0)
	r.srv.Flush()
	// Read a range crossing three segment boundaries, half-warm.
	want := make([]byte, 3000)
	r.fs.ReadAt("f", 500, want)
	got := make([]byte, 3000)
	n, err := f.ReadAt(got, 500)
	if err != nil || n != 3000 {
		t.Fatalf("spanning read = %d %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("spanning read assembled wrong data")
	}
}

func TestCloseEndsEpochAndBlocksIO(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	r.fs.Create("f", 1000)
	a := New(r.srv, r.fs, nil)
	f, _ := a.Open("f")
	if !r.srv.Auditor().EpochOpen("f") {
		t.Fatal("open must install a watch")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if r.srv.Auditor().EpochOpen("f") {
		t.Fatal("last close must remove the watch")
	}
	if _, err := f.ReadAt(make([]byte, 10), 0); err == nil {
		t.Fatal("read after close must fail")
	}
	if err := f.WriteAt(0, 10); err == nil {
		t.Fatal("write after close must fail")
	}
	if err := f.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
}

func TestWriteInvalidatesPrefetchedData(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	const size = 8 * 1024
	r.fs.Create("f", size)
	a := New(r.srv, r.fs, nil)
	f, _ := a.Open("f")
	defer f.Close()
	buf := make([]byte, size)
	f.ReadAt(buf, 0)
	r.srv.Flush()
	if r.srv.Hierarchy().TotalUsed() == 0 {
		t.Fatal("segments should be prefetched before the write")
	}
	if err := f.WriteAt(0, 100); err != nil {
		t.Fatal(err)
	}
	r.srv.Flush()
	if got := r.srv.Hierarchy().TotalUsed(); got != 0 {
		t.Fatalf("prefetched data must be invalidated after a write; %d bytes resident", got)
	}
	// Post-invalidation reads must see the new version.
	want := make([]byte, 1024)
	r.fs.ReadAt("f", 0, want)
	got := make([]byte, 1024)
	f.ReadAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("stale data served after invalidation")
	}
}

func TestWriteExtendsSize(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	r.fs.Create("f", 1000)
	a := New(r.srv, r.fs, nil)
	f, _ := a.Open("f")
	defer f.Close()
	if err := f.WriteAt(1500, 500); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	n, err := f.ReadAt(buf, 1900)
	if err != nil || n != 100 {
		t.Fatalf("read in extended region = %d %v", n, err)
	}
}

func TestSharedEpochAcrossAgents(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	r.fs.Create("f", 4096)
	a1 := New(r.srv, r.fs, nil)
	a2 := New(r.srv, r.fs, nil)
	f1, _ := a1.Open("f")
	f2, _ := a2.Open("f")
	f1.Close()
	if !r.srv.Auditor().EpochOpen("f") {
		t.Fatal("watch must survive while any reader is open")
	}
	f2.Close()
	if r.srv.Auditor().EpochOpen("f") {
		t.Fatal("watch must be removed by the last closer")
	}
}

func TestCrossAgentPrefetchSharing(t *testing.T) {
	// The data-centric property: agent 1's accesses warm the cache for
	// agent 2, which never read the file before.
	r := newRig(t, 1<<20, 1<<20)
	const size = 32 * 1024
	r.fs.Create("f", size)
	a1 := New(r.srv, r.fs, nil)
	f1, _ := a1.Open("f")
	buf := make([]byte, size)
	f1.ReadAt(buf, 0)
	r.srv.Flush()

	a2 := New(r.srv, r.fs, nil)
	f2, _ := a2.Open("f")
	defer f2.Close()
	f2.ReadAt(buf, 0)
	if a2.Stats().Hits() == 0 {
		t.Fatal("second application must benefit from the first's accesses")
	}
	f1.Close()
}

func TestConcurrentReaders(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	const size = 64 * 1024
	r.fs.Create("f", size)
	want := make([]byte, size)
	r.fs.ReadAt("f", 0, want)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := New(r.srv, r.fs, nil)
			f, err := a.Open("f")
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			got := make([]byte, 4096)
			for off := 0; off < size; off += 4096 {
				if _, err := f.ReadAt(got, int64(off)); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want[off:off+4096]) {
					errs <- bytes.ErrTooLarge // sentinel for mismatch
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSequentialReadAndSeek(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	r.fs.Create("f", 1000)
	a := New(r.srv, r.fs, nil)
	f, _ := a.Open("f")
	defer f.Close()

	want := make([]byte, 1000)
	r.fs.ReadAt("f", 0, want)

	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadAll = %d bytes, %v", len(got), err)
	}
	// Rewind and re-read a slice.
	if _, err := f.Seek(100, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 50)
	n, err := f.Read(buf)
	if err != nil || n != 50 || !bytes.Equal(buf, want[100:150]) {
		t.Fatalf("post-seek read = %d %v", n, err)
	}
	// SeekCurrent and SeekEnd.
	if pos, _ := f.Seek(-50, io.SeekCurrent); pos != 100 {
		t.Fatalf("SeekCurrent pos = %d", pos)
	}
	if pos, _ := f.Seek(-100, io.SeekEnd); pos != 900 {
		t.Fatalf("SeekEnd pos = %d", pos)
	}
	if _, err := f.Seek(-5000, io.SeekCurrent); err == nil {
		t.Fatal("negative position must error")
	}
	if _, err := f.Seek(0, 99); err == nil {
		t.Fatal("bad whence must error")
	}
}

// stubServer holds the segments in resident in a tier called "ram" and
// notes, for every event posted, how far the read had got: the tier
// probes made and the reads the PFS device had served.
type stubServer struct {
	segr     *seg.Segmenter
	fs       *pfs.FS
	resident map[int64]bool

	probes   int
	probed   time.Time // the first probe of the current read
	posted   []events.Event
	atProbes []int
	atOrigin []int64
}

func (s *stubServer) StartEpoch(string, int64)  {}
func (s *stubServer) EndEpoch(string)           {}
func (s *stubServer) Segmenter() *seg.Segmenter { return s.segr }

func (s *stubServer) ReadPrefetched(id seg.ID, off int64, p []byte) (int, string, bool) {
	if s.probes++; s.probes == 1 {
		s.probed = time.Now()
	}
	if !s.resident[id.Index] {
		return 0, "", false
	}
	return len(p), "ram", true
}

func (s *stubServer) PostEvent(ev events.Event) {
	ops, _, _ := s.fs.Device().Stats()
	s.posted = append(s.posted, ev)
	s.atProbes = append(s.atProbes, s.probes)
	s.atOrigin = append(s.atOrigin, ops)
}

// TestReadEventOrder: a read that misses posts its one event before its
// first origin read, for the bytes requested and stamped with the
// request's start, so the server can push what follows while the reader
// waits on the PFS; a read served wholly from tiers posts after its reads.
func TestReadEventOrder(t *testing.T) {
	const segSize, size = 1024, 8 * 1024
	fs := pfs.New(devsim.New(devsim.Profile{Name: "pfs"}, 1))
	fs.Create("f", size)
	api := &stubServer{segr: seg.NewSegmenter(segSize), fs: fs, resident: map[int64]bool{0: true, 1: true, 5: true}}
	a := New(api, fs, nil)
	f, err := a.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3*segSize)
	for _, c := range []struct {
		name     string
		off, len int64
		// probes and origin are the tier probes and PFS reads made when
		// the event is posted, misses the PFS reads of the whole read.
		probes         int
		origin, misses int64
	}{
		{"served wholly from tiers", 0, 2 * segSize, 2, 0, 0},
		{"a miss after a hit", segSize + 100, 2 * segSize, 2, 0, 2},
		{"hits and misses mixed", 4 * segSize, 3 * segSize, 1, 0, 2},
		{"a short read at EOF", size - 24, 2 * segSize, 1, 0, 1},
	} {
		api.probes, api.posted, api.atProbes, api.atOrigin = 0, nil, nil, nil
		ops0, _, _ := fs.Device().Stats()
		start := time.Now()
		n, err := f.ReadAt(buf[:c.len], c.off)
		want := min(c.len, size-c.off)
		if err != nil || int64(n) != want {
			t.Fatalf("%s: read %d, %v; want %d", c.name, n, err, want)
		}
		if len(api.posted) != 1 {
			t.Fatalf("%s: %d events posted, want 1", c.name, len(api.posted))
		}
		ev := api.posted[0]
		if ev.Op != events.OpRead || ev.File != "f" || ev.Offset != c.off || ev.Length != want {
			t.Errorf("%s: posted %+v, want a read of [%d, +%d)", c.name, ev, c.off, want)
		}
		if ev.Time.Before(start) || ev.Time.After(api.probed) {
			t.Errorf("%s: event stamped %v after the read's start, want it at the start, before the first probe (%v)",
				c.name, ev.Time.Sub(start), api.probed.Sub(start))
		}
		ops, _, _ := fs.Device().Stats()
		if api.atProbes[0] != c.probes || api.atOrigin[0]-ops0 != c.origin || ops-ops0 != c.misses {
			t.Errorf("%s: posted after %d probes and %d origin reads (%d in all), want %d, %d and %d",
				c.name, api.atProbes[0], api.atOrigin[0]-ops0, ops-ops0, c.probes, c.origin, c.misses)
		}
	}
}

// TestReadBlockedTimeByServingTier: every read's time is charged once, to
// the tier that served it all or to "pfs" when any segment missed, in the
// client's statistics and in hfetch_read_blocked_nanos_total alike.
func TestReadBlockedTimeByServingTier(t *testing.T) {
	const segSize, size = 1024, 8 * 1024
	fs := pfs.New(devsim.New(devsim.Profile{Name: "pfs"}, 1))
	fs.Create("f", size)
	api := &stubServer{segr: seg.NewSegmenter(segSize), fs: fs, resident: map[int64]bool{0: true, 1: true}}
	reg := telemetry.NewRegistry()
	a := New(api, fs, nil)
	a.SetTelemetry(reg)
	buf := make([]byte, 2*segSize)
	for _, off := range []int64{0, segSize, 4 * segSize, 0} { // ram, pfs, pfs, ram
		if _, _, err := a.ReadAt("f", size, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	snap := a.Stats().Snapshot()
	if len(snap.TierBlocked) != 2 || snap.TierBlocked["ram"] <= 0 || snap.TierBlocked["pfs"] <= 0 ||
		snap.TierBlocked["ram"]+snap.TierBlocked["pfs"] != snap.ReadNanos {
		t.Fatalf("blocked by tier %v, want ram and pfs summing to the read time %d", snap.TierBlocked, snap.ReadNanos)
	}
	exported := map[string]int64{}
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "hfetch_read_blocked_nanos_total" {
			exported[m.Labels] = m.Value
		}
	}
	if exported[`{tier="ram"}`] != snap.TierBlocked["ram"] || exported[`{tier="pfs"}`] != snap.TierBlocked["pfs"] {
		t.Fatalf("exported %v, want the client's %v", exported, snap.TierBlocked)
	}
	if s := a.Stats().String(); !strings.Contains(s, "blocked: pfs=") {
		t.Fatalf("String = %q, want the blocked split", s)
	}
}

// TestReadEventThink: a handle's read event carries the time since that
// handle's previous read returned, 0 on its first read; two handles on one
// file keep separate gaps, and Agent.ReadAt, which has no handle, posts 0.
func TestReadEventThink(t *testing.T) {
	const segSize, size = 1024, 8 * 1024
	fs := pfs.New(devsim.New(devsim.Profile{Name: "pfs"}, 1))
	fs.Create("f", size)
	api := &stubServer{segr: seg.NewSegmenter(segSize), fs: fs, resident: map[int64]bool{0: true, 1: true, 2: true}}
	a := New(api, fs, nil)
	f1, err := a.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := a.Open("f")
	handles := [2]*File{f1, f2}
	buf := make([]byte, segSize)
	// read reads through handle h and returns the event's Think and the
	// bounds the gap since h's previous read returned must lie within.
	var called, returned [2]time.Time // each handle's last read
	read := func(h int) (think, lo, hi time.Duration) {
		before := time.Now()
		if _, err := handles[h].ReadAt(buf, int64(h)*segSize); err != nil {
			t.Fatal(err)
		}
		after := time.Now()
		think = api.posted[len(api.posted)-1].Think
		lo, hi = before.Sub(returned[h]), after.Sub(called[h])
		called[h], returned[h] = before, after
		return think, lo, hi
	}
	if th, _, _ := read(0); th != 0 {
		t.Fatalf("f1's first read: Think %v, want 0", th)
	}
	time.Sleep(20 * time.Millisecond)
	if th, _, _ := read(1); th != 0 {
		t.Fatalf("f2's first read, after f1's: Think %v, want 0", th)
	}
	time.Sleep(time.Millisecond)
	if th, lo, hi := read(1); th < lo || th > hi || th >= 20*time.Millisecond {
		t.Fatalf("f2's second read: Think %v, want its own gap, within [%v, %v]", th, lo, hi)
	}
	if th, lo, hi := read(0); th < lo || th > hi || th < 21*time.Millisecond {
		t.Fatalf("f1's second read: Think %v, want the gap since f1's first, within [%v, %v]", th, lo, hi)
	}
	for range 2 {
		if _, _, err := a.ReadAt("f", size, buf, 0); err != nil {
			t.Fatal(err)
		}
		if th := api.posted[len(api.posted)-1].Think; th != 0 {
			t.Fatalf("Agent.ReadAt posted Think %v, want 0", th)
		}
	}
}
