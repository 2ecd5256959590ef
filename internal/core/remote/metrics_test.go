package remote

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"hfetch/internal/comm"
	"hfetch/internal/core/placement"
	"hfetch/internal/core/server"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// daemonTelemetry is daemon with a metric registry and a lifecycle tracer
// that traces every event.
func daemonTelemetry(t *testing.T) (*Client, *server.Server) {
	t.Helper()
	fs := pfs.New(nil)
	ram := tiers.NewStore("ram", 1<<20, nil)
	nvme := tiers.NewStore("nvme", 2<<20, nil)
	hier := tiers.NewHierarchy(ram, nvme)
	stats, maps := server.NewLocalMaps("daemon0")
	reg := telemetry.NewRegistry()
	reg.EnableLifecycle(1)
	reg.SetTimeSampling(1)
	srv, err := server.New(server.Config{
		Node:        "daemon0",
		SegmentSize: 4096,
		Engine:      placement.Config{UpdateThreshold: placement.High},
		Telemetry:   reg,
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

// readTwice issues a cold read (PFS miss), flushes placement, and reads
// the same segment again so it is served from a tier.
func readTwice(t *testing.T, c *Client, srv *server.Server) {
	t.Helper()
	if err := c.CreateFile("data/m", 16*4096); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("data/m")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	if _, tier, err := f.ReadAtTier(buf, 0); err != nil || tier == "" {
		t.Fatalf("second read should hit a tier, got tier=%q err=%v", tier, err)
	}
}

func TestRemoteMetrics(t *testing.T) {
	c, srv := daemonTelemetry(t)
	readTwice(t, c, srv)

	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("telemetry-enabled daemon returned an empty snapshot")
	}
	byName := map[string]*telemetry.MetricSnapshot{}
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		byName[m.Name+m.Labels] = m
	}
	miss, ok := byName["hfetch_read_misses_total"]
	if !ok || miss.Value == 0 {
		t.Fatalf("cold read must be counted as a miss: %+v", miss)
	}
	var readHist *telemetry.MetricSnapshot
	for k, m := range byName {
		if strings.HasPrefix(k, "hfetch_tier_read_nanos{") {
			readHist = m
		}
	}
	if readHist == nil || readHist.Hist == nil || readHist.Hist.Count == 0 {
		t.Fatalf("tier hit must record a read-latency histogram sample, got %+v", readHist)
	}
	if _, ok := byName["hfetch_events_posted_total"]; !ok {
		t.Fatal("queue counters missing from snapshot")
	}

	// The server-side IO accounting rides along on ctl.stats.
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IO.Hits == 0 || st.IO.Misses == 0 {
		t.Fatalf("stats IO snapshot = %+v", st.IO)
	}
}

func TestRemoteSpans(t *testing.T) {
	c, srv := daemonTelemetry(t)
	readTwice(t, c, srv)

	// hfetchctl spans lists the span events of the lifecycle traces.
	_, recs, err := c.TraceRecords()
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	for _, r := range recs {
		for _, e := range r.Events {
			if r.File == "data/m" && r.Seg == 0 {
				stages[e.Stage] = true
			}
		}
	}
	if !stages[telemetry.StageEvent] || !stages[telemetry.StageAudit] {
		t.Fatalf("expected event and audit spans in data/m#0's traces, got %v", stages)
	}
}

func TestRemoteMetricsDisabled(t *testing.T) {
	c, _ := daemon(t)
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Metrics) != 0 {
		t.Fatalf("telemetry-disabled daemon must return an empty snapshot, got %d series", len(snap.Metrics))
	}
	_, recs, err := c.TraceRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("telemetry-disabled daemon must return no traces, got %d", len(recs))
	}
}

func TestHTTPTelemetryEndpoints(t *testing.T) {
	c, srv := daemonTelemetry(t)
	readTwice(t, c, srv)

	h := NewHTTPHandler(srv)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"# TYPE hfetch_tier_read_nanos histogram",
		"hfetch_tier_read_nanos_bucket{tier=",
		"hfetch_read_misses_total",
		"hfetch_event_shard_depth{shard=",
		"# TYPE hfetch_pipeline_stage_nanos histogram",
		`hfetch_tier_capacity_bytes{tier="ram"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("telemetry /metrics missing %q:\n%s", want, body)
		}
	}

	// Pipeline spans are served inside the lifecycle traces.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace", nil))
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	audited := false
	for _, e := range doc.TraceEvents {
		audited = audited || (e.Name == telemetry.StageAudit && e.Ph == "X")
	}
	if !audited {
		t.Fatalf("/debug/trace has no audit span: %s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rr.Code != 200 {
		t.Fatalf("pprof cmdline = %d", rr.Code)
	}
}
