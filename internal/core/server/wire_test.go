package server

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/seg"
	"hfetch/internal/invariant"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

var readReqCases = []remoteReadReq{
	{Tier: "ram", File: "/data/f", Idx: 3, Off: 0, Len: 65536},
	{Tier: "", File: "", Idx: 0, Off: 0, Len: 0},
	{Tier: "nvme", File: strings.Repeat("d/", 200) + "f", Idx: 1 << 40, Off: 4095, Len: 1},
	{Tier: "bb", File: "neg", Idx: -1, Off: -7, Len: 8 << 20},
}

func TestReadReqCodec(t *testing.T) {
	for _, want := range readReqCases {
		enc := appendReadReq(nil, want)
		got, err := parseReadReq(enc)
		if err != nil || got != want {
			t.Fatalf("round trip of %+v: got %+v, err %v", want, got, err)
		}
		// Every strict prefix is a truncation, and so is a longer head.
		for n := 0; n < len(enc); n++ {
			if _, err := parseReadReq(enc[:n]); err == nil {
				t.Fatalf("%+v truncated to %d of %d bytes parsed", want, n, len(enc))
			}
		}
		if _, err := parseReadReq(append(enc, 0)); err == nil {
			t.Fatalf("%+v with a trailing byte parsed", want)
		}
	}
}

func TestReadRespCodec(t *testing.T) {
	for _, c := range []struct {
		head []byte
		ok   bool
		bad  bool
	}{
		{readRespOK, true, false},
		{readRespMiss, false, false},
		{nil, false, true},
		{[]byte{2}, false, true},
		{[]byte{1, 0}, false, true},
	} {
		ok, err := parseReadResp(c.head)
		if (err != nil) != c.bad || ok != c.ok {
			t.Fatalf("parseReadResp(%v) = %v, %v", c.head, ok, err)
		}
	}
}

func FuzzParseReadReq(f *testing.F) {
	for _, r := range readReqCases {
		f.Add(appendReadReq(nil, r))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parseReadReq(data)
		if err != nil {
			return
		}
		if len(r.Tier)+len(r.File) > len(data) {
			t.Fatalf("decoded strings outgrow the %d-byte head", len(data))
		}
		// Lengths may arrive as non-minimal varints, so compare the
		// decoded request, not the bytes.
		if again, err := parseReadReq(appendReadReq(nil, r)); err != nil || again != r {
			t.Fatalf("%+v re-parsed as %+v, %v", r, again, err)
		}
	})
}

func FuzzParseReadResp(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if ok, err := parseReadResp(data); err == nil && (len(data) != 1 || ok != (data[0] == 1)) {
			t.Fatalf("accepted malformed head %x", data)
		}
	})
}

// ---- two servers over a real transport ----

// segPayload is the deterministic content of a test segment, so a read
// can be checked byte-exact without consulting the serving node.
func segPayload(idx int64, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(int(idx)*31 + i*7 + 1)
	}
	return p
}

type tcpDialer struct {
	t     testing.TB
	addrs map[string]string
}

func (d tcpDialer) Dial(node string) comm.Peer {
	p, err := comm.DialTCPOpts(d.addrs[node], comm.PeerOptions{RequestTimeout: 10 * time.Second})
	if err != nil {
		d.t.Fatalf("dial %s: %v", node, err)
	}
	return p
}

// remotePair boots a serving node n0 (whose RAM tier the returned store
// is) and a reading node n1 connected to it over TCP loopback.
func remotePair(t testing.TB, capacity int64) (n1 *Server, ram0 *tiers.Store) {
	t.Helper()
	fs := pfs.New(nil)
	build := func(node string, capacity int64) (*Server, *tiers.Store, *comm.Mux) {
		ram := tiers.NewStore("ram", capacity, nil)
		stats, maps := NewLocalMaps(node)
		srv, err := New(Config{Node: node, SegmentSize: 64 << 10}, fs, tiers.NewHierarchy(ram), stats, maps)
		if err != nil {
			t.Fatal(err)
		}
		return srv, ram, comm.NewMux()
	}
	n0, ram0, mux0 := build("n0", capacity)
	n1, _, mux1 := build("n1", 1<<20)
	ln, err := comm.ListenTCP("127.0.0.1:0", mux0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	n0.EnableRemote(mux0, nil)
	n1.EnableRemote(mux1, tcpDialer{t: t, addrs: map[string]string{"n0": ln.Addr()}})
	t.Cleanup(func() {
		if p := n1.peer("n0"); p != nil {
			p.Close()
		}
	})
	return n1, ram0
}

// TestRemoteReadOverTCP reads a resident segment across the wire by
// reference, whole and in part, and a non-resident one as a clean miss.
func TestRemoteReadOverTCP(t *testing.T) {
	n1, ram0 := remotePair(t, 4<<20)
	const size = 64 << 10
	id := seg.ID{File: "f", Index: 2}
	want := segPayload(id.Index, size)
	if err := ram0.Put(id, want); err != nil {
		t.Fatal(err)
	}

	rep, ok, err := n1.ViewRemote("n0", "ram", id, 0, size)
	if err != nil || !ok || !bytes.Equal(rep.Body, want) {
		t.Fatalf("ViewRemote: ok %v, err %v, %d bytes", ok, err, len(rep.Body))
	}
	rep.Release()

	copied := tiers.CopiedBytes()
	rep, ok, err = n1.ViewRemote("n0", "ram", id, 4096, 1000)
	if err != nil || !ok || !bytes.Equal(rep.Body, want[4096:4096+1000]) {
		t.Fatalf("partial ViewRemote: ok %v, err %v, %d bytes", ok, err, len(rep.Body))
	}
	rep.Release()
	if got := tiers.CopiedBytes() - copied; got != 0 {
		t.Fatalf("the peer read copied %d payload bytes, want none", got)
	}

	for _, miss := range []struct {
		tier string
		id   seg.ID
		off  int64
	}{
		{"ram", seg.ID{File: "f", Index: 9}, 0}, // not resident
		{"nvme", id, 0},                         // no such tier on n0
		{"ram", id, size},                       // offset past the payload
	} {
		rep, ok, err := n1.ViewRemote("n0", miss.tier, miss.id, miss.off, size)
		if ok || err != nil {
			t.Fatalf("miss %+v: ok %v, err %v; want a clean miss", miss, ok, err)
		}
		rep.Release()
	}
	reads, _ := n1.RemoteStats()
	if reads != 5 {
		t.Fatalf("remote reads = %d, want 5", reads)
	}
	b, resident := ram0.View(id)
	if !resident {
		t.Fatal("segment no longer resident on the serving node")
	}
	defer b.Release()
	if b.Refs() != 2 {
		t.Fatalf("serving node leaked a pin: refs %d, want 2 (residency + this view)", b.Refs())
	}
}

// TestRemoteReadAllocs guards the wire's allocation budget: one 64 KiB
// srv.read over TCP loopback with a request timeout, both ends in this
// process (so the serving side's allocations count too). What is left is
// the 1-byte response head the client owns.
func TestRemoteReadAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("allocation counts are for the production build")
	}
	n1, ram0 := remotePair(t, 4<<20)
	const size = 64 << 10
	id := seg.ID{File: "f", Index: 0}
	if err := ram0.Put(id, segPayload(0, size)); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, size)
	read := func() {
		rep, ok, err := n1.ViewRemote("n0", "ram", id, 0, size)
		if err != nil || !ok || copy(p, rep.Body) != size {
			t.Fatalf("read: %d bytes, ok %v, err %v", len(rep.Body), ok, err)
		}
		rep.Release()
	}
	read() // dial, first slab misses, the connection's first worker
	got := testing.AllocsPerRun(200, read)
	t.Logf("a 64 KiB srv.read over TCP: %.1f allocs", got)
	if got > 2 {
		t.Fatalf("a 64 KiB srv.read over TCP costs %.1f allocs, budget 2", got)
	}
}

// TestRemoteReadsRaceEvictionOverTCP: readers on n1 pull segments from
// n0 over TCP while n0 evicts, re-admits and invalidates them. Every
// read must be byte-exact or a clean miss — a buffer recycled while its
// frame was still being written would show as a mismatch (and, with
// -tags hfetch_invariants, as 0xDB poison) — and when the readers stop
// no pin may be left behind.
func TestRemoteReadsRaceEvictionOverTCP(t *testing.T) {
	const (
		size    = 64 << 10
		nseg    = 8
		readers = 4
	)
	n1, ram0 := remotePair(t, 2*nseg*size)
	put := func(idx int64) { ram0.Put(seg.ID{File: "f", Index: idx}, segPayload(idx, size)) } //nolint:errcheck // a full tier is a miss, which readers tolerate
	for i := int64(0); i < nseg; i++ {
		put(i)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() { // eviction and re-admission, segment by segment
		defer churn.Done()
		for i := int64(0); ; i = (i + 1) % nseg {
			select {
			case <-stop:
				return
			default:
			}
			ram0.Delete(seg.ID{File: "f", Index: i})
			put(i)
		}
	}()
	go func() { // invalidating writes: the whole file drops at once
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			ram0.DeleteFile("f")
			for i := int64(0); i < nseg; i++ {
				put(i)
			}
		}
	}()

	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			want := make([][]byte, nseg)
			for i := range want {
				want[i] = segPayload(int64(i), size)
			}
			for i := 0; i < 300; i++ {
				idx := int64((i*7 + r) % nseg)
				off := int64((i * 4099) % (size / 2))
				rep, ok, err := n1.ViewRemote("n0", "ram", seg.ID{File: "f", Index: idx}, off, size/2)
				if err != nil {
					t.Errorf("reader %d: transport error %v", r, err)
					return
				}
				if !ok {
					misses.Add(1)
					continue
				}
				if !bytes.Equal(rep.Body, want[idx][off:off+size/2]) {
					t.Errorf("reader %d: segment %d at %d is not byte-exact", r, idx, off)
				}
				rep.Release()
				hits.Add(1)
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	t.Logf("%d byte-exact reads, %d clean misses", hits.Load(), misses.Load())
	if hits.Load() == 0 {
		t.Fatalf("no read was served (misses %d): the race was not exercised", misses.Load())
	}

	// Responses are written before their pins drop; give the last
	// serving goroutines a moment, then every resident buffer must be
	// back to its residency reference alone.
	deadline := time.Now().Add(5 * time.Second)
	for i := int64(0); i < nseg; i++ {
		id := seg.ID{File: "f", Index: i}
		for {
			b, resident := ram0.View(id)
			if !resident {
				break
			}
			refs := b.Refs()
			b.Release()
			if refs == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("segment %d still has %d references after the readers stopped, want 2 (residency + this view)", i, refs)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
