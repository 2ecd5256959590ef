package gateway

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hfetch/internal/harness/leakcheck"
	"hfetch/internal/tiers"
)

// TestLedgerAbortedAndShedRequests: a request holds a slab chunk buffer
// and a pinned view of every resident segment in its range. A client that
// walks away mid-body, one that is shed with 429 before it is served and
// one whose file changes under it must each leave nothing behind: the
// ledger is back where it started once the node has stopped.
func TestLedgerAbortedAndShedRequests(t *testing.T) {
	t.Cleanup(leakcheck.Slab(t)) // registered first: runs after the node's own cleanups
	base := tiers.ReadSlabStats().InUseBytes
	g, srv, fs := newTestNode(t, Config{ChunkBytes: testSeg, TenantRPS: 2, TenantBurst: 2, AdmitWait: time.Millisecond})
	const size = 512 * testSeg
	if err := fs.Create("data/l", size); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()

	// Make the file resident, so the requests below pin tier buffers.
	resp, err := http.Get(ts.URL + "/files/data/l")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	srv.Flush()
	resident := tiers.ReadSlabStats().InUseBytes - base
	if srv.Hierarchy().TotalUsed() == 0 {
		t.Fatal("nothing resident after the priming read")
	}

	// A client that reads the first bytes of a 2 MiB body and hangs up.
	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(c, "GET /files/data/l HTTP/1.1\r\nHost: x\r\nX-Tenant: walker\r\n\r\n")
	if _, err := io.ReadFull(c, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// A tenant beyond its rate: the third request in a burst of two is shed.
	shed := 0
	for i := 0; i < 4; i++ {
		req, _ := http.NewRequest("GET", ts.URL+"/files/data/l", nil)
		req.Header.Set("X-Tenant", "acme")
		req.Header.Set("Range", "bytes=0-65535")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed with 429")
	}

	// A write under a response in flight: the handler aborts by panic.
	w := &writeTrigger{ResponseRecorder: httptest.NewRecorder(), onFirst: func() { fs.Write("data/l", 0, 1) }} //nolint:errcheck // the abort below is the check
	func() {
		defer func() {
			if r := recover(); r != http.ErrAbortHandler {
				t.Fatalf("recovered %v, want http.ErrAbortHandler", r)
			}
		}()
		req := httptest.NewRequest("GET", "/files/data/l", nil)
		req.Header.Set("X-Tenant", "writer")
		g.ServeHTTP(w, req)
	}()

	// With every request over, what is in use is what is resident (the
	// write invalidated the file: less than before, never more).
	ts.Close()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		inUse, used := tiers.ReadSlabStats().InUseBytes-base, srv.Hierarchy().TotalUsed()
		if inUse <= resident && inUse == used {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests over: %d slab bytes in use, %d resident (%d before them)", inUse, used, resident)
		}
	}
}
