package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWatchdogStall is how long a probe's progress counter may sit
// still (with work pending) before the watchdog trips.
const DefaultWatchdogStall = 5 * time.Second

// DefaultWatchdogBundles bounds the on-disk diagnostic bundle ring.
const DefaultWatchdogBundles = 4

// WatchdogProbe watches one pipeline for forward progress. Pending
// reports outstanding work (queue depth, inflight count); Progress is a
// monotonic completion counter. The probe is stalled when Pending > 0
// while Progress has not moved for the configured stall window — depth
// alone is not a stall (a full queue that drains and refills is
// healthy), and an idle pipeline (Pending == 0) never trips.
type WatchdogProbe struct {
	Name     string
	Pending  func() int64
	Progress func() int64
}

// WatchdogConfig tunes a Watchdog.
type WatchdogConfig struct {
	// Stall is the no-progress window before a probe trips (default
	// DefaultWatchdogStall).
	Stall time.Duration
	// Interval is the poll period of the background loop started by
	// Start (default Stall/4, floor 10ms).
	Interval time.Duration
	// Dir, when non-empty, is where diagnostic bundles are written. The
	// directory is created on first trip and kept to
	// DefaultWatchdogBundles files, oldest deleted first.
	Dir string
	// Registry, when non-nil, supplies the metrics snapshot and the
	// last-N lifecycle traces for bundles, and hosts the
	// hfetch_watchdog_trips_total{probe} counter family.
	Registry *Registry
	// Now is the clock (default time.Now; tests inject a fake and drive
	// Poll directly).
	Now func() time.Time
}

// probeState is one probe plus its stall-detection state, guarded by
// Watchdog.mu.
type probeState struct {
	probe        WatchdogProbe
	lastProgress int64
	lastChange   time.Time
	seen         bool
	tripped      bool
}

// Watchdog is the stall detector / flight recorder trigger. It samples
// registered progress probes and, when one stops progressing with work
// pending, bumps hfetch_watchdog_trips_total{probe} and dumps a
// one-shot diagnostic bundle (goroutine profile, metrics snapshot,
// recent lifecycle traces, registered extra sections) to a bounded
// on-disk ring. One trip per stall episode: the probe must progress
// again before it can trip again.
//
// All methods are nil-safe — a nil *Watchdog is the disabled state and
// every call is a single-branch no-op.
type Watchdog struct {
	cfg   WatchdogConfig
	trips *CounterVec
	total atomic.Int64

	mu     sync.Mutex
	probes []*probeState
	dumps  []namedDump
	seq    int

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

type namedDump struct {
	name string
	fn   func() string
}

// NewWatchdog builds a watchdog; it is inert until Start (or Poll).
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Stall <= 0 {
		cfg.Stall = DefaultWatchdogStall
	}
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Stall / 4
	}
	if cfg.Interval < 10*time.Millisecond {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	w := &Watchdog{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	if reg := cfg.Registry; reg != nil {
		w.trips = reg.CounterVec("hfetch_watchdog_trips_total",
			"stall-watchdog trips by probe", "probe")
		reg.CounterFunc("hfetch_watchdog_bundles_total",
			"diagnostic bundles written by the stall watchdog", w.total.Load)
	}
	return w
}

// AddProbe registers a progress probe. Nil-safe; probes with a nil
// Pending or Progress are ignored.
func (w *Watchdog) AddProbe(p WatchdogProbe) {
	if w == nil || p.Pending == nil || p.Progress == nil {
		return
	}
	w.mu.Lock()
	w.probes = append(w.probes, &probeState{probe: p})
	w.mu.Unlock()
}

// AddDump registers an extra named section for diagnostic bundles
// (e.g. the mover's queue state). Nil-safe.
func (w *Watchdog) AddDump(name string, fn func() string) {
	if w == nil || fn == nil {
		return
	}
	w.mu.Lock()
	w.dumps = append(w.dumps, namedDump{name: name, fn: fn})
	w.mu.Unlock()
}

// Start launches the background poll loop. Nil-safe and idempotent.
func (w *Watchdog) Start() {
	if w == nil {
		return
	}
	w.startOnce.Do(func() {
		go func() {
			defer close(w.done)
			t := time.NewTicker(w.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-w.stop:
					return
				case <-t.C:
					w.Poll()
				}
			}
		}()
	})
}

// Stop terminates the poll loop started by Start. Nil-safe.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.startOnce.Do(func() { close(w.done) }) // never started: nothing to wait for
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// Probes returns the registered probes' names in registration order.
// Nil-safe.
func (w *Watchdog) Probes() []string {
	if w == nil {
		return nil
	}
	var names []string
	w.mu.Lock()
	for _, ps := range w.probes {
		names = append(names, ps.probe.Name)
	}
	w.mu.Unlock()
	return names
}

// Trips returns the number of stalls tripped so far, each counted once
// its bundle is written. Nil-safe.
func (w *Watchdog) Trips() int64 {
	if w == nil {
		return 0
	}
	return w.total.Load()
}

// Poll runs one detection pass over every probe. Start calls it on a
// ticker; tests with a fake clock call it directly. Nil-safe.
func (w *Watchdog) Poll() {
	if w == nil {
		return
	}
	now := w.cfg.Now()
	w.mu.Lock()
	probes := append([]*probeState(nil), w.probes...)
	w.mu.Unlock()
	for _, ps := range probes {
		// Sample outside the lock: probe closures reach into other
		// subsystems and must not nest under watchdog mu.
		pending := ps.probe.Pending()
		progress := ps.probe.Progress()

		var trip bool
		w.mu.Lock()
		switch {
		case !ps.seen:
			ps.seen = true
			ps.lastProgress = progress
			ps.lastChange = now
		case progress != ps.lastProgress || pending <= 0:
			// Forward progress (or nothing pending): reset the window and
			// re-arm the probe for the next episode.
			ps.lastProgress = progress
			ps.lastChange = now
			ps.tripped = false
		case now.Sub(ps.lastChange) >= w.cfg.Stall && !ps.tripped:
			ps.tripped = true
			trip = true
		}
		w.mu.Unlock()
		if trip {
			w.trip(ps.probe.Name, now, pending, progress)
		}
	}
}

// trip records one stall: a diagnostic bundle, then the counter bump,
// so a reader that sees the count also finds the bundle on disk.
func (w *Watchdog) trip(probe string, now time.Time, pending, progress int64) {
	if w.cfg.Dir != "" {
		w.writeBundle(probe, now, pending, progress)
	}
	if w.trips != nil {
		w.trips.With(probe).Inc()
	}
	w.total.Add(1)
}

// writeBundle writes one stall's bundle file and prunes old ones.
func (w *Watchdog) writeBundle(probe string, now time.Time, pending, progress int64) {
	w.mu.Lock()
	w.seq++
	seq := w.seq
	dumps := append([]namedDump(nil), w.dumps...)
	w.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "hfetch watchdog bundle\nprobe: %s\nat: %s\npending: %d\nprogress: %d\nstall_window: %s\n",
		probe, now.Format(time.RFC3339Nano), pending, progress, w.cfg.Stall)

	b.WriteString("\n== goroutines ==\n")
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&b, 1)
	}

	if reg := w.cfg.Registry; reg != nil {
		b.WriteString("\n== metrics ==\n")
		reg.WriteText(&b)
		if lc := reg.Lifecycle(); lc != nil {
			b.WriteString("\n== lifecycle traces (most recent first) ==\n")
			for _, rec := range lc.Completed() {
				fmt.Fprintf(&b, "trace %d %s#%d class=%s done=%t stages=", rec.ID, rec.File, rec.Seg, rec.Class, rec.Done)
				for i, e := range rec.Events {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(e.Stage)
				}
				b.WriteByte('\n')
			}
		}
	}
	for _, d := range dumps {
		fmt.Fprintf(&b, "\n== %s ==\n%s\n", d.name, d.fn())
	}

	if err := os.MkdirAll(w.cfg.Dir, 0o755); err != nil {
		return
	}
	name := filepath.Join(w.cfg.Dir, fmt.Sprintf("watchdog-%06d-%s.txt", seq, sanitizeProbe(probe)))
	if err := os.WriteFile(name, []byte(b.String()), 0o644); err != nil {
		return
	}
	w.pruneBundles()
}

// pruneBundles keeps the newest DefaultWatchdogBundles bundle files.
func (w *Watchdog) pruneBundles() {
	ents, err := os.ReadDir(w.cfg.Dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "watchdog-") {
			names = append(names, e.Name())
		}
	}
	if len(names) <= DefaultWatchdogBundles {
		return
	}
	sort.Strings(names) // zero-padded seq: lexicographic = chronological
	for _, n := range names[:len(names)-DefaultWatchdogBundles] {
		_ = os.Remove(filepath.Join(w.cfg.Dir, n))
	}
}

func sanitizeProbe(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-' || r == '_':
			return r
		}
		return '_'
	}, s)
}
