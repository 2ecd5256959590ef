package hfetch

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"hfetch/internal/config"
)

// TestWedgedGatewayTripsWatchdog is the daemon's deliberate stall run in
// process: on the node NewNode builds, a gateway GET of a 64 MiB file
// whose client stops reading keeps a request admitted while none
// completes, and within a few stall windows the watchdog trips on the
// gateway probe and writes that probe's bundle.
func TestWedgedGatewayTripsWatchdog(t *testing.T) {
	d := config.Default()
	d.WatchdogStallMS = 200
	d.WatchdogDir = t.TempDir()
	d.Files = []config.File{{Name: "bench/big", Size: 64 << 20}}
	n, err := NewNode(d)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	srv := httptest.NewServer(n.GatewayHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/files/bench/big")
	if err != nil {
		t.Fatal(err)
	}
	trips := func() int64 {
		for _, m := range n.Telemetry().Snapshot().Metrics {
			if m.Name == "hfetch_watchdog_trips_total" && m.Labels == `{probe="gateway"}` {
				return m.Value
			}
		}
		return 0
	}
	for deadline := time.Now().Add(10 * time.Second); trips() < 1 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
	}
	resp.Body.Close() // the body was never read: the connection closes and the handler returns
	if got := trips(); got < 1 {
		t.Fatalf("hfetch_watchdog_trips_total{probe=\"gateway\"} = %d after the client stopped reading, want >= 1", got)
	}
	bundles, err := filepath.Glob(filepath.Join(d.WatchdogDir, "watchdog-*-gateway.txt"))
	if err != nil || len(bundles) != 1 {
		t.Fatalf("gateway bundles %v (%v), want one", bundles, err)
	}
}
