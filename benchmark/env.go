package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hfetch"
	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
)

const (
	segSize    = 64 << 10 // the prefetching grain and the size of one read op
	generators = 2        // load comes from 2 goroutines on every workload
)

// env is one built instance of a workload: the cluster, its files and what
// the generators need to check their reads. Set-up builds a fresh env each
// time; the last one built is the one measured.
type env struct {
	seed    int64
	seconds float64 // length of the timed window
	traced  bool
	bar     *barriers
	tr      *tracer // nil in untraced runs

	cluster *hfetch.Cluster
	data    dataset
	// reader is the node whose server the ops read through (node 1 on
	// cross_node_read, node 0 elsewhere).
	reader int
	// gatewayURL is where gateway_range's HTTP server listens.
	gatewayURL string
	// closers run when the env is torn down, before the cluster stops.
	closers []func()
	// primedShare is the share of the data set found resident after priming.
	primedShare float64
}

// shippedConfig is internal/config.Default(), the configuration cmd/hfetchd
// runs, written as an hfetch.Config with 64 KiB segments. Telemetry is on
// only in traced runs, where every hot-path observation reads the clock.
func shippedConfig(traced bool) hfetch.Config {
	cfg := hfetch.Config{
		Nodes:                 1,
		SegmentSize:           segSize,
		DecayBase:             2,
		DecayUnit:             time.Second,
		SeqBoost:              0.5,
		DaemonThreads:         4,
		EventShards:           8,
		WorkersPerShard:       1,
		EngineThreads:         4,
		EngineInterval:        time.Second,
		EngineUpdateThreshold: 100,
		AsyncMover:            true,
		MoverQueueDepth:       256,
		FetchCoalesce:         true,
		FetchWait:             2 * time.Millisecond,
		TimeScale:             1,
		Gateway: hfetch.GatewaySpec{
			MaxInflight:     256,
			ClientInflight:  64,
			AdmitWait:       10 * time.Millisecond,
			StreamDetect:    true,
			StreamLookahead: 4,
		},
	}
	if traced {
		cfg.EnableTelemetry = true
		cfg.EnableLifecycle = true
		cfg.TimeSampleEvery = 1
	}
	return cfg
}

// freeTiers are devices with zero latency and zero bandwidth: devsim
// charges them nothing and never sleeps, so wall-clock on a free-device
// workload is implementation overhead alone. The PFS of such a workload is
// the zero hfetch.PFSSpec.
func freeTiers(names []string, capacity []int64) []hfetch.TierSpec {
	out := make([]hfetch.TierSpec, len(names))
	for i, n := range names {
		out[i] = hfetch.TierSpec{Name: n, Capacity: capacity[i], Shared: n == "bb"}
	}
	return out
}

// modeledPFS is devsim.PFSProfile as a PFSSpec.
func modeledPFS() hfetch.PFSSpec {
	p := devsim.PFSProfile
	return hfetch.PFSSpec{Latency: p.Latency, Bandwidth: p.BytesPerSec, Servers: p.Channels}
}

// dataset is a set of equal-sized files and, for every segment, the first
// and last byte the PFS holds there, read once at set-up through
// FS.ExpectedAt so that checking a read costs two comparisons.
type dataset struct {
	names []string
	segs  int // segments per file
	exp   [][][2]byte
}

func (e *env) createFiles(prefix string, files, segs int) error {
	d := dataset{names: make([]string, files), segs: segs}
	for i := range d.names {
		d.names[i] = fmt.Sprintf("%s-%03d.dat", prefix, i)
		if err := e.cluster.CreateFile(d.names[i], int64(segs)*segSize); err != nil {
			return err
		}
	}
	e.data = d
	return e.expectAll()
}

// expectAll fills the expected-byte table for the files' current versions.
func (e *env) expectAll() error {
	e.data.exp = make([][][2]byte, len(e.data.names))
	for f := range e.data.names {
		tab, err := e.expect(f)
		if err != nil {
			return err
		}
		e.data.exp[f] = tab
	}
	return nil
}

func (e *env) expect(f int) ([][2]byte, error) {
	fs := e.cluster.FS()
	tab := make([][2]byte, e.data.segs)
	for s := range tab {
		off := int64(s) * segSize
		first, err := fs.ExpectedAt(e.data.names[f], off)
		if err != nil {
			return nil, err
		}
		last, err := fs.ExpectedAt(e.data.names[f], off+segSize-1)
		if err != nil {
			return nil, err
		}
		tab[s] = [2]byte{first, last}
	}
	return tab, nil
}

// checkRead reports whether buf holds segments [s, s+len(buf)/segSize) of
// file f: exact length is the caller's check, first and last byte are this
// one's.
func (d *dataset) checkRead(f, s int, buf []byte) bool {
	last := s + len(buf)/segSize - 1
	return buf[0] == d.exp[f][s][0] && buf[len(buf)-1] == d.exp[f][last][1]
}

// prime makes the data set resident on node 0: one pass of ReadAt over
// every segment posts the access events, a bounded Flush lets the placement
// pass and the mover land them, and a second pass through
// Server.ReadPrefetched verifies byte-for-byte what a tier now serves. The
// working set is at most half of tier 0, so the Flush cannot meet
// ErrNoSpace and its bound is never the expected exit.
func (e *env) prime() error {
	node := e.cluster.Node(0)
	client := node.NewClient()
	buf := make([]byte, segSize)
	for round := 0; round < 3; round++ {
		for f, name := range e.data.names {
			fh, err := client.Open(name)
			if err != nil {
				return err
			}
			for s := 0; s < e.data.segs; s++ {
				n, err := fh.ReadAt(buf, int64(s)*segSize)
				if err != nil || n != segSize || !e.data.checkRead(f, s, buf) {
					fh.Close()
					return fmt.Errorf("priming read %s seg %d: n=%d err=%v", name, s, n, err)
				}
			}
			fh.Close()
		}
		e.bar.bounded("Node.Flush", barrierLimit, node.Flush)
		resident, total := 0, 0
		srv := node.Server()
		for f, name := range e.data.names {
			for s := 0; s < e.data.segs; s++ {
				total++
				n, _, ok := srv.ReadPrefetched(seg.ID{File: name, Index: int64(s)}, 0, buf)
				if ok && n == segSize && e.data.checkRead(f, s, buf) {
					resident++
				}
			}
		}
		e.primedShare = float64(resident) / float64(total)
		if e.primedShare >= 0.99 {
			return nil
		}
	}
	return fmt.Errorf("priming left only %.3f of the data set resident", e.primedShare)
}

// close tears the env down: the workload's own closers, then the cluster
// under the barrier bound.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
	if e.cluster != nil {
		c := e.cluster
		e.bar.bounded("Cluster.Stop", barrierLimit, c.Stop)
		e.cluster = nil
	}
}

// window is the length of the timed window.
func (e *env) window() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// readOp names one aligned read: span segments of file starting at seg.
type readOp struct{ file, seg int }

// nextRead draws a uniformly random aligned read of span segments. Every
// workload's generator goes through it (or nextEvent), so the op list is a
// function of the seed alone.
func nextRead(rng *rand.Rand, files, segs, span int) readOp {
	return readOp{file: rng.Intn(files), seg: rng.Intn(segs - span + 1)}
}

// genRNG is generator g's private source for a run's seed; no two (seed,
// generator) pairs share one.
func genRNG(seed int64, g int) *rand.Rand {
	return rand.New(rand.NewSource(seed*generators + int64(g)))
}

// window is one timed measurement: what the generators recorded and the
// workload's own observations.
type window struct {
	open     time.Time
	recs     []*recorder
	makespan time.Duration // open → last op done (and, on event_storm, last event consumed)
	// hits and misses count segment reads served from a tier and from the
	// PFS; a workload without segment reads leaves both 0.
	hits, misses int64
	// extraFailed counts ops lost outside the recorders (events never
	// consumed, a generator that did not return).
	extraFailed int64
	// notes are violated post-conditions; any note makes the run incorrect.
	notes []string
	// layer holds the per-layer metrics only this workload's generators can
	// observe; info holds observations that are not metrics.
	layer, info map[string]float64
	// backlogMax and queueMax are sampled by the traced run's poller.
	backlogMax, queueMax int64
}

func (w *window) note(format string, args ...any) {
	w.notes = append(w.notes, fmt.Sprintf(format, args...))
}

// generatorLimit is how long after its deadline a generator may still be
// inside its last op before the window gives it up as hung.
const generatorLimit = 20 * time.Second

// timed opens a window and runs one goroutine per loop. Each loop gets its
// recorder and the common deadline, and must return soon after it. A loop
// that has not returned generatorLimit after the deadline is abandoned and
// counted as one failed op; its samples are lost with it.
func (e *env) timed(length time.Duration, loops []func(r *recorder, deadline time.Time)) *window {
	runtime.GC()
	w := &window{recs: make([]*recorder, len(loops)), layer: map[string]float64{}, info: map[string]float64{}}
	w.open = time.Now()
	deadline := w.open.Add(length)
	done := make(chan int, len(loops))
	for g, loop := range loops {
		r := &recorder{open: w.open, traced: e.traced}
		w.recs[g] = r
		//lint:allow goleak joined through done below; a hung generator is abandoned on purpose and reported
		go func(g int, loop func(*recorder, time.Time)) {
			loop(r, deadline)
			done <- g
		}(g, loop)
	}
	limit := time.NewTimer(time.Until(deadline) + generatorLimit)
	defer limit.Stop()
	returned := make([]bool, len(loops))
wait:
	for range loops {
		select {
		case g := <-done:
			returned[g] = true
		case <-limit.C:
			e.bar.dump("generator")
			break wait
		}
	}
	for g, ok := range returned {
		if !ok {
			w.recs[g] = &recorder{open: w.open}
			w.extraFailed++
			w.note("generator %d did not return", g)
		}
	}
	w.finish()
	return w
}

// finish closes the window now. timed calls it when the generators have
// returned; a workload whose work outlasts them (event_storm's consumers)
// calls it again when that work is done.
func (w *window) finish() {
	w.makespan = time.Since(w.open)
}

// devStat is one device's counters.
type devStat struct {
	ops, bytes int64
	busy       time.Duration
}

func statOf(d *devsim.Device) devStat {
	o, b, busy := d.Stats()
	return devStat{o, b, busy}
}
