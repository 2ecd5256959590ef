package remote

import (
	"bytes"
	"testing"

	"hfetch/internal/comm"
	"hfetch/internal/core/placement"
	"hfetch/internal/core/server"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

// daemon boots a full HFetch server behind a TCP endpoint and returns a
// connected client.
func daemon(t *testing.T) (*Client, *server.Server) {
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
	if srv.Registry().Watched("data/x") {
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
