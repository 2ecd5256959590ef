package gateway

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTenantRateShedsWithRetryAfter(t *testing.T) {
	g, _, fs := newTestNode(t, Config{
		TenantRPS:   1,
		TenantBurst: 1,
		AdmitWait:   time.Millisecond,
	})
	if err := fs.Create("data/q", 1000); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g)
	defer ts.Close()

	get := func(tenant string) *http.Response {
		req, _ := http.NewRequest("GET", ts.URL+"/files/data/q", nil)
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := get("acme"); resp.StatusCode != 200 {
		t.Fatalf("first request: status = %d, want 200", resp.StatusCode)
	}
	resp := get("acme")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	// A different tenant has its own bucket.
	if resp := get("other"); resp.StatusCode != 200 {
		t.Fatalf("other tenant: status = %d, want 200", resp.StatusCode)
	}
	if g.shedVec.With("tenant_rps").Value() == 0 {
		t.Fatal("tenant_rps shed counter did not move")
	}
}

// TestConcurrentTenantNoOverAdmission races many goroutines of one
// tenant against the bucket (run under -race in CI) and asserts the
// admitted total never exceeds rate·elapsed + burst.
func TestConcurrentTenantNoOverAdmission(t *testing.T) {
	const (
		rps   = 200.0
		burst = 10.0
	)
	q := newQOS(Config{
		MaxInflight:    100000,
		ClientInflight: 100000,
		TenantRPS:      rps,
		TenantBurst:    burst,
		AdmitWait:      time.Nanosecond,
	}.withDefaults(1 << 20))

	var admitted atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := "c" + strconv.Itoa(w)
			for i := 0; i < 200; i++ {
				if adm := q.admit("acme", client); adm.ok {
					admitted.Add(1)
					q.release("acme", client)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	limit := int64(rps*elapsed+burst) + 1
	if got := admitted.Load(); got > limit {
		t.Fatalf("over-admission: %d admitted, limit %d (%.3fs elapsed)", got, limit, elapsed)
	}
	if admitted.Load() < int64(burst) {
		t.Fatalf("bucket admitted %d, want at least the burst %v", admitted.Load(), burst)
	}
}

func TestInflightCaps(t *testing.T) {
	q := newQOS(Config{MaxInflight: 2, ClientInflight: 1}.withDefaults(1 << 20))

	a1 := q.admit("t", "c1")
	if !a1.ok {
		t.Fatal("first admit refused")
	}
	if adm := q.admit("t", "c1"); adm.ok || adm.reason != "client_inflight" {
		t.Fatalf("same-client second admit = %+v, want client_inflight shed", adm)
	}
	a2 := q.admit("t", "c2")
	if !a2.ok {
		t.Fatal("second client refused")
	}
	if adm := q.admit("t", "c3"); adm.ok || adm.reason != "max_inflight" {
		t.Fatalf("third concurrent admit = %+v, want max_inflight shed", adm)
	}
	q.release("t", "c1")
	q.release("t", "c2")
	if adm := q.admit("t", "c3"); !adm.ok {
		t.Fatalf("admit after release refused: %+v", adm)
	}
	q.release("t", "c3")
	if n := q.inflightNow(); n != 0 {
		t.Fatalf("inflight = %d after all releases, want 0", n)
	}
}

func TestBoundedWaitAdmits(t *testing.T) {
	q := newQOS(Config{
		MaxInflight:    10,
		ClientInflight: 10,
		TenantRPS:      1000,
		TenantBurst:    1,
		AdmitWait:      50 * time.Millisecond,
	}.withDefaults(1 << 20))
	if adm := q.admit("t", "c"); !adm.ok || adm.wait != 0 {
		t.Fatalf("burst admit = %+v, want immediate", adm)
	}
	// Bucket is now in debt; the next request should be admitted with a
	// small pacing wait rather than shed (1/1000 rps ≈ 1ms < AdmitWait).
	adm := q.admit("t", "c")
	if !adm.ok {
		t.Fatalf("in-debt admit refused: %+v", adm)
	}
	if adm.wait <= 0 || adm.wait > 50*time.Millisecond {
		t.Fatalf("pacing wait = %v, want within (0, AdmitWait]", adm.wait)
	}
}

func TestStreamTableWindowAndReset(t *testing.T) {
	tb := newStreamTable(100)
	if tb.note("c", "f", 0, 100) {
		t.Fatal("first range already a stream")
	}
	if !tb.note("c", "f", 100, 100) {
		t.Fatal("contiguous continuation not detected")
	}
	if !tb.note("c", "f", 250, 100) {
		t.Fatal("in-window gap broke the stream")
	}
	if tb.note("c", "f", 10_000, 100) {
		t.Fatal("far jump still counted as a stream")
	}
	if tb.note("other", "f", 100, 100) {
		t.Fatal("fresh client inherited another client's stream")
	}
	// The key is the (client, file) pair, not their concatenation.
	if tb.note("c", "ff", 200, 100) || tb.note("cf", "f", 200, 100) {
		t.Fatal("a stream leaked to a pair spelling the same bytes")
	}
}

// TestPerRequestBookkeepingDoesNotAllocate: noting a request of a tracked
// stream and counting a status the gateway emits build no string.
func TestPerRequestBookkeepingDoesNotAllocate(t *testing.T) {
	g, _, _ := newTestNode(t, Config{})
	off := int64(0)
	g.streams.note("10.0.0.1", "data/f", off, 100)
	if n := testing.AllocsPerRun(100, func() {
		off += 100
		g.streams.note("10.0.0.1", "data/f", off, 100)
		g.countCode(206)
	}); n != 0 {
		t.Fatalf("stream note + status count allocate %.1f times per request", n)
	}
	before := g.reqVec.With("418").Value()
	g.countCode(418) // not a status the gateway emits: resolved on demand
	if got := g.reqVec.With("418").Value(); got != before+1 {
		t.Fatalf("an unlisted status was not counted: %d -> %d", before, got)
	}
}
