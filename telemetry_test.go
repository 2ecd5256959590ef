package hfetch

import (
	"net/http/httptest"
	"strings"
	"testing"

	"hfetch/internal/telemetry"
)

// TestClusterTelemetry covers the embedded-cluster observability path:
// per-node registries, agent wiring, and the merged cluster snapshot.
func TestClusterTelemetry(t *testing.T) {
	cfg := fastConfig(2)
	cfg.EnableTelemetry = true
	cfg.EnableLifecycle = true
	cfg.LifecycleSampleEvery = 1
	cfg.TimeSampleEvery = 1
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.CreateFile("data/t", 64*4096); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cluster.Nodes(); i++ {
		if cluster.Node(i).Telemetry() == nil {
			t.Fatalf("node %d has no registry despite EnableTelemetry", i)
		}
		client := cluster.Node(i).NewClient()
		f, err := client.Open("data/t")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		if _, err := f.ReadAt(buf, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	snap, ok := cluster.TelemetrySnapshot()
	if !ok {
		t.Fatal("TelemetrySnapshot reported no telemetry")
	}
	var sb strings.Builder
	snap.WriteText(&sb)
	text := sb.String()
	for _, want := range []string{
		"hfetch_events_posted_total",
		`hfetch_tier_read_nanos_count{tier="pfs"}`,
		`hfetch_pipeline_stage_nanos_bucket{stage="client_read"`,
		`hfetch_tier_capacity_bytes{tier="ram"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("merged snapshot missing %q:\n%s", want, text)
		}
	}
	// Two nodes posted read events; the merge must sum both registries.
	var posted int64
	for _, m := range snap.Metrics {
		if m.Name == "hfetch_events_posted_total" {
			posted += m.Value
		}
	}
	if posted < 2 {
		t.Fatalf("merged events_posted_total = %d, want >= 2", posted)
	}

	// Spans of traced segments join their lifecycle traces, which is what
	// hfetchctl spans lists.
	spans := 0
	for _, rec := range cluster.Node(0).Telemetry().Lifecycle().Export() {
		for _, e := range rec.Events {
			if e.Nanos > 0 {
				spans++
			}
		}
	}
	if spans == 0 {
		t.Fatal("no span joined a lifecycle trace despite LifecycleSampleEvery=1")
	}
}

// TestClusterTelemetryDisabled pins the default-off contract.
func TestClusterTelemetryDisabled(t *testing.T) {
	cluster, err := NewCluster(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if cluster.Node(0).Telemetry() != nil {
		t.Fatal("telemetry registry allocated without EnableTelemetry")
	}
	if _, ok := cluster.TelemetrySnapshot(); ok {
		t.Fatal("TelemetrySnapshot must report ok=false when disabled")
	}
}

// TestReadCountsMatchRegistry: the registry's per-tier hit and miss
// families are views over the server's read stats, so the two cannot
// drift, whether a read came through the agent or a gateway range.
func TestReadCountsMatchRegistry(t *testing.T) {
	cfg := fastConfig(1)
	cfg.EnableTelemetry = true
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.CreateFile("data/d", 16*4096); err != nil {
		t.Fatal(err)
	}
	node := cluster.Node(0)
	f, err := node.NewClient().Open("data/d")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 8*4096)
	read := func() {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/files/data/d", nil)
		req.Header.Set("Range", "bytes=32768-65535")
		node.GatewayHandler().ServeHTTP(rr, req)
		if rr.Code != 206 || rr.Body.Len() != 32768 {
			t.Fatalf("gateway GET = %d with %d bytes", rr.Code, rr.Body.Len())
		}
	}
	read() // cold: misses
	node.Flush()
	read() // warm: hits

	stats := node.Server().IOStats()
	if stats.Hits() == 0 || stats.Misses() == 0 {
		t.Fatalf("server read stats = %v, want hits and misses", stats)
	}
	want := map[string]int64{}
	for tier, n := range stats.TierHits() {
		want[telemetry.RenderLabels("tier", tier)] = n
	}
	got := map[string]int64{}
	misses := int64(-1)
	for _, m := range node.Telemetry().Snapshot().Metrics {
		switch m.Name {
		case "hfetch_tier_read_hits_total":
			got[m.Labels] = m.Value
		case "hfetch_read_misses_total":
			misses = m.Value
		}
	}
	if len(got) != len(want) {
		t.Fatalf("registry tier hits %v, server %v", got, want)
	}
	for labels, n := range want {
		if got[labels] != n {
			t.Fatalf("registry tier hits %v, server %v", got, want)
		}
	}
	if misses != stats.Misses() {
		t.Fatalf("registry misses %d, server %d", misses, stats.Misses())
	}
}
