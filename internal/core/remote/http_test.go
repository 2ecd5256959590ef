package remote

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHTTPEndpoints(t *testing.T) {
	c, srv := daemon(t)
	c.CreateFile("f", 8*4096)
	f, _ := c.Open("f")
	defer f.Close()
	buf := make([]byte, 4096)
	f.ReadAt(buf, 0)
	srv.Flush()

	h := NewHTTPHandler(srv)

	// /healthz
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", rr.Code, rr.Body.String())
	}

	// /stats
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/stats", nil))
	var st StatsReply
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Node != "daemon0" || st.Reads == 0 {
		t.Fatalf("stats = %+v", st)
	}

	// /tiers
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/tiers", nil))
	var ti []TierInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &ti); err != nil {
		t.Fatal(err)
	}
	if len(ti) != 2 || ti[0].Name != "ram" {
		t.Fatalf("tiers = %+v", ti)
	}

	// /metrics: this daemon runs without telemetry, so there is no
	// exposition; /stats above keeps its counters.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 404 {
		t.Fatalf("metrics without telemetry = %d, want 404", rr.Code)
	}

	// Unknown path.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/nope", nil))
	if rr.Code != 404 {
		t.Fatalf("unknown path = %d", rr.Code)
	}
}
