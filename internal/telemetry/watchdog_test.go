package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock drives watchdog polls deterministically: tests advance it
// and call Poll directly, so no wall-clock sleeps are involved.
type fakeClock struct{ now atomic.Int64 }

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.now.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.now.Add(int64(d)) }

func TestWatchdogTripsOnStall(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	var clk fakeClock
	var pending, progress atomic.Int64
	wd := NewWatchdog(WatchdogConfig{
		Stall:    time.Second,
		Dir:      dir,
		Registry: reg,
		Now:      clk.Now,
	})
	wd.AddProbe(WatchdogProbe{
		Name:     "mover",
		Pending:  pending.Load,
		Progress: progress.Load,
	})
	wd.AddDump("extra", func() string { return "queue=frozen" })

	// Stalled: work pending, progress frozen across the stall window.
	pending.Store(3)
	wd.Poll() // baseline sample
	clk.Advance(2 * time.Second)
	wd.Poll()
	if got := wd.Trips(); got != 1 {
		t.Fatalf("Trips() = %d after stall, want 1", got)
	}

	// One trip per episode: more stalled polls must not re-trip.
	clk.Advance(2 * time.Second)
	wd.Poll()
	if got := wd.Trips(); got != 1 {
		t.Fatalf("Trips() = %d on continued stall, want still 1", got)
	}

	// Progress re-arms the probe; a fresh stall trips again.
	progress.Add(1)
	wd.Poll()
	clk.Advance(2 * time.Second)
	wd.Poll()
	if got := wd.Trips(); got != 2 {
		t.Fatalf("Trips() = %d after re-arm + second stall, want 2", got)
	}

	// The trip counter is exported per probe.
	var tripSeries int64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "hfetch_watchdog_trips_total" && strings.Contains(m.Labels, `probe="mover"`) {
			tripSeries = m.Value
		}
	}
	if tripSeries != 2 {
		t.Fatalf("hfetch_watchdog_trips_total{probe=mover} = %d, want 2", tripSeries)
	}

	// Bundles landed on disk and carry the diagnostic sections.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("bundle files = %d, want 2", len(ents))
	}
	raw, err := os.ReadFile(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"probe: mover", "== goroutines ==", "== metrics ==", "== extra ==", "queue=frozen"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("bundle %s missing %q", ents[0].Name(), want)
		}
	}
}

func TestWatchdogNoTripWhileHealthy(t *testing.T) {
	var clk fakeClock
	var pending, progress atomic.Int64
	wd := NewWatchdog(WatchdogConfig{Stall: time.Second, Now: clk.Now})
	wd.AddProbe(WatchdogProbe{Name: "p", Pending: pending.Load, Progress: progress.Load})

	// Idle (nothing pending) never trips, no matter how long.
	wd.Poll()
	clk.Advance(time.Hour)
	wd.Poll()
	if got := wd.Trips(); got != 0 {
		t.Fatalf("Trips() = %d while idle, want 0", got)
	}

	// Pending work with moving progress never trips either.
	pending.Store(5)
	for i := 0; i < 10; i++ {
		progress.Add(1)
		clk.Advance(2 * time.Second)
		wd.Poll()
	}
	if got := wd.Trips(); got != 0 {
		t.Fatalf("Trips() = %d while progressing, want 0", got)
	}
}

func TestWatchdogBundleRingPrunes(t *testing.T) {
	dir := t.TempDir()
	var clk fakeClock
	var pending, progress atomic.Int64
	pending.Store(1)
	wd := NewWatchdog(WatchdogConfig{Stall: time.Second, Dir: dir, Now: clk.Now})
	wd.AddProbe(WatchdogProbe{Name: "p", Pending: pending.Load, Progress: progress.Load})

	const trips = DefaultWatchdogBundles + 2
	for i := 0; i < trips; i++ {
		wd.Poll() // baseline (or re-arm sample)
		clk.Advance(2 * time.Second)
		wd.Poll() // trip
		progress.Add(1)
		wd.Poll() // re-arm
	}
	if got := wd.Trips(); got != trips {
		t.Fatalf("Trips() = %d, want %d", got, trips)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != DefaultWatchdogBundles {
		t.Fatalf("bundle files after prune = %d, want %d", len(ents), DefaultWatchdogBundles)
	}
	// Oldest pruned: the two lowest sequence numbers are gone.
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "watchdog-00000"+"1") || strings.HasPrefix(e.Name(), "watchdog-000002") {
			t.Fatalf("old bundle %s survived pruning", e.Name())
		}
	}
}

func TestWatchdogNilAndLifecycle(t *testing.T) {
	var wd *Watchdog
	wd.AddProbe(WatchdogProbe{Name: "p"})
	wd.AddDump("d", func() string { return "" })
	wd.Poll()
	wd.Start()
	wd.Stop()
	if got := wd.Trips(); got != 0 {
		t.Fatalf("nil Trips() = %d, want 0", got)
	}

	// Start/Stop on a real watchdog terminates cleanly, and Stop without
	// Start does not hang.
	live := NewWatchdog(WatchdogConfig{Stall: 50 * time.Millisecond})
	live.Start()
	live.Stop()
	live.Stop() // idempotent

	idle := NewWatchdog(WatchdogConfig{})
	idle.Stop() // never started
}
