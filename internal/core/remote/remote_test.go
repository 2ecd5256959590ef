package remote

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"hfetch/internal/comm"
	"hfetch/internal/core/placement"
	"hfetch/internal/core/server"
	"hfetch/internal/harness/leakcheck"
	"hfetch/internal/invariant"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

// daemon boots a full HFetch server behind a TCP endpoint and returns a
// connected client.
func daemon(t testing.TB) (*Client, *server.Server) {
	t.Helper()
	fs := pfs.New(nil)
	ram := tiers.NewStore("ram", 1<<20, nil)
	nvme := tiers.NewStore("nvme", 2<<20, nil)
	hier := tiers.NewHierarchy(ram, nvme)
	stats, maps := server.NewLocalMaps("daemon0")
	srv, err := server.New(server.Config{
		Node:        "daemon0",
		SegmentSize: 4096,
		Engine:      placement.Config{UpdateThreshold: placement.High},
	}, fs, hier, stats, maps)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)

	mux := comm.NewMux()
	Serve(mux, srv)
	ServeAdmin(mux, fs)
	ts, err := comm.ListenTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })

	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, srv
}

func TestRemoteOpenReadClose(t *testing.T) {
	c, srv := daemon(t)
	if err := c.CreateFile("data/x", 64*4096); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("data/x")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 64*4096 || f.Name() != "data/x" {
		t.Fatalf("file meta = %q %d", f.Name(), f.Size())
	}
	want := make([]byte, 4096)
	srv.FS().ReadAt("data/x", 8192, want)
	got := make([]byte, 4096)
	n, err := f.ReadAt(got, 8192)
	if err != nil || n != 4096 || !bytes.Equal(got, want) {
		t.Fatalf("remote read = %d %v (match=%v)", n, err, bytes.Equal(got, want))
	}
	if c.Stats().Misses() != 1 {
		t.Fatalf("cold remote read must miss: %s", c.Stats())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if srv.Auditor().EpochOpen("data/x") {
		t.Fatal("close must remove the watch")
	}
}

func TestRemoteWarmReadHits(t *testing.T) {
	c, srv := daemon(t)
	c.CreateFile("f", 16*4096)
	f, _ := c.Open("f")
	defer f.Close()
	buf := make([]byte, 4096)
	for off := int64(0); off < 16*4096; off += 4096 {
		f.ReadAt(buf, off)
	}
	srv.Flush()
	for off := int64(0); off < 16*4096; off += 4096 {
		f.ReadAt(buf, off)
	}
	if c.Stats().Hits() == 0 {
		t.Fatalf("warm remote reads must hit: %s", c.Stats())
	}
	tiers := c.Stats().TierHits()
	if tiers["ram"] == 0 {
		t.Fatalf("hits should come from ram: %v", tiers)
	}
}

func TestRemoteWriteInvalidates(t *testing.T) {
	c, srv := daemon(t)
	c.CreateFile("f", 8*4096)
	f, _ := c.Open("f")
	defer f.Close()
	buf := make([]byte, 4096)
	for off := int64(0); off < 8*4096; off += 4096 {
		f.ReadAt(buf, off)
	}
	srv.Flush()
	if srv.Hierarchy().TotalUsed() == 0 {
		t.Fatal("expected resident segments before the write")
	}
	if err := f.WriteAt(0, 10); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	if srv.Hierarchy().TotalUsed() != 0 {
		t.Fatal("write must invalidate prefetched data")
	}
	// Post-invalidation reads see the new version.
	want := make([]byte, 4096)
	srv.FS().ReadAt("f", 0, want)
	got := make([]byte, 4096)
	f.ReadAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("stale bytes after remote invalidation")
	}
}

func TestRemoteReadEdges(t *testing.T) {
	c, _ := daemon(t)
	c.CreateFile("f", 1000)
	f, _ := c.Open("f")
	defer f.Close()
	buf := make([]byte, 400)
	n, err := f.ReadAt(buf, 800)
	if err != nil || n != 200 {
		t.Fatalf("short read = %d %v", n, err)
	}
	n, err = f.ReadAt(buf, 5000)
	if err != nil || n != 0 {
		t.Fatalf("read past EOF = %d %v", n, err)
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset must error")
	}
	if _, err := c.Open("ghost"); err == nil {
		t.Fatal("open of missing file must error")
	}
}

func TestRemoteStatsAndTiers(t *testing.T) {
	c, srv := daemon(t)
	c.CreateFile("f", 8*4096)
	f, _ := c.Open("f")
	defer f.Close()
	buf := make([]byte, 4096)
	f.ReadAt(buf, 0)
	// The read event is audited asynchronously; wait for it before
	// asserting the auditor's read counter.
	srv.Flush()
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "daemon0" || st.Reads == 0 {
		t.Fatalf("stats = %+v", st)
	}
	ti, err := c.Tiers()
	if err != nil || len(ti) != 2 || ti[0].Name != "ram" {
		t.Fatalf("tiers = %+v %v", ti, err)
	}
}

// TestAgentReadAllocs guards the agent read's allocation budget: one
// 64 KiB File.ReadAt over TCP loopback, both ends in this process (so the
// daemon's allocations count too). The payload rides the frame's body
// from a slab buffer on the daemon to one on the client, both heads are
// slab buffers, and the daemon's owner of that payload is a Buf header
// carved 64 to an allocation; what is left is the file name the read's
// event keeps. The bytes are checked
// against the PFS on a miss and on a hit, and every slab buffer drawn is
// given back.
func TestAgentReadAllocs(t *testing.T) {
	if invariant.Enabled || raceEnabled {
		t.Skip("allocation counts are for the production build")
	}
	t.Cleanup(leakcheck.Slab(t)) // registered first: runs after the daemon has stopped
	c, srv := daemon(t)
	const size = 64 << 10
	if err := c.CreateFile("f", 4*size); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make([]byte, size)
	srv.FS().ReadAt("f", size, want)
	got := make([]byte, size)
	for _, pass := range []string{"miss", "hit"} {
		n, tier, err := f.ReadAtTier(got, size)
		if err != nil || n != size || !bytes.Equal(got, want) {
			t.Fatalf("%s: read %d bytes, err %v, match %v", pass, n, err, bytes.Equal(got, want))
		}
		if (tier != "") != (pass == "hit") {
			t.Fatalf("%s: served by tier %q", pass, tier)
		}
		srv.Flush()
	}
	allocs := testing.AllocsPerRun(200, func() {
		if n, err := f.ReadAt(got, size); err != nil || n != size {
			t.Fatalf("read: %d bytes, %v", n, err)
		}
	})
	t.Logf("a 64 KiB agent read over TCP: %.1f allocs", allocs)
	if allocs > 1 {
		t.Fatalf("a 64 KiB agent read over TCP costs %.1f allocs, budget 1", allocs)
	}
}

// TestAgentReadsConcurrently: readers sharing one client read through one
// connection at once. Each read's head and body
// are slab buffers on both ends, so a buffer released while another read
// still used it would show as wrong bytes or a wrong tier; when the
// daemon stops, every buffer drawn is back.
func TestAgentReadsConcurrently(t *testing.T) {
	t.Cleanup(leakcheck.Slab(t)) // registered first: runs after the daemon has stopped
	c, srv := daemon(t)
	const size, nseg = 4096, 64
	if err := c.CreateFile("f", nseg*size); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make([]byte, nseg*size)
	srv.FS().ReadAt("f", 0, want)
	// The first half is read once and placed: the readers hit there, and
	// miss in the second half unless readahead got there first.
	if _, err := f.ReadAt(make([]byte, nseg/2*size), 0); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	hits := c.Stats().Hits()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got := make([]byte, 2*size)
			for i := 0; i < 100; i++ {
				off := int64((r*31+i*7)%(nseg-1)) * size
				n, tier, err := f.ReadAtTier(got, off)
				if err != nil || n != len(got) || !bytes.Equal(got, want[off:off+int64(n)]) {
					t.Errorf("reader %d: read at %d: %d bytes, err %v", r, off, n, err)
					return
				}
				if tier != "" && tier != "ram" && tier != "nvme" {
					t.Errorf("reader %d: served by tier %q", r, tier)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if c.Stats().Hits() == hits {
		t.Fatalf("no reader hit: %s", c.Stats())
	}
}

// BenchmarkAgentRead is one warm File.ReadAt through the daemon over TCP
// loopback, both ends in process, at a 4 KiB and a 64 KiB read.
func BenchmarkAgentRead(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			c, srv := daemon(b)
			if err := c.CreateFile("f", int64(size)); err != nil {
				b.Fatal(err)
			}
			f, err := c.Open("f")
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			p := make([]byte, size)
			f.ReadAt(p, 0) //nolint:errcheck // checked by the timed reads
			srv.Flush()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := f.ReadAt(p, 0); err != nil || n != size {
					b.Fatalf("read: %d bytes, %v", n, err)
				}
			}
		})
	}
}

// TestAgentReadInProcess: over the in-process transport the reply's head
// is written into the client's request buffer and its body is the
// daemon's slab buffer itself; both must hold until the client has
// parsed and copied them, and the body go back to the slab after.
func TestAgentReadInProcess(t *testing.T) {
	t.Cleanup(leakcheck.Slab(t)) // registered first: runs after the daemon has stopped
	_, srv := daemon(t)
	mux := comm.NewMux()
	Serve(mux, srv)
	net := comm.NewInprocNetwork(nil)
	net.Join("daemon0", mux)
	c := NewClient(net.Dial("daemon0"))
	const size = 4096
	if err := srv.FS().Create("f", 8*size); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make([]byte, 2*size)
	srv.FS().ReadAt("f", size, want)
	got := make([]byte, 2*size)
	for _, pass := range []string{"miss", "hit"} {
		n, tier, err := f.ReadAtTier(got, size)
		if err != nil || n != len(got) || !bytes.Equal(got, want) {
			t.Fatalf("%s: read %d bytes, err %v, match %v", pass, n, err, bytes.Equal(got, want))
		}
		if (tier != "") != (pass == "hit") {
			t.Fatalf("%s: served by tier %q", pass, tier)
		}
		srv.Flush()
	}
}
