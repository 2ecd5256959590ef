package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"hfetch/internal/core/auditor"
	"hfetch/internal/core/ioclient"
	"hfetch/internal/core/mover"
	"hfetch/internal/core/placement"
	"hfetch/internal/devsim"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// result is what one (workload, traced?) run reports to the parent.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	// Samples is the number of latencies behind op_p50_us and op_p99_us.
	Samples int `json:"samples"`
	// Window holds what the run's timed window showed: the end-to-end
	// metrics and the timings.
	Window   map[string]float64 `json:"window"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Info holds observations that are not metrics (writes done, stale
	// reads accepted, share of the data set primed, each set-up's time).
	Info   map[string]float64 `json:"info"`
	Budget []budgetRow        `json:"budget,omitempty"`
	Spans  []selfRow          `json:"spans,omitempty"`
	Host   hostInfo           `json:"host"`
}

// budgetRow is one line of a workload's latency budget: the rows of one
// workload sum to its op_p50_us.
type budgetRow struct {
	Name string  `json:"name"`
	US   float64 `json:"us"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Rev        string `json:"rev"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Rev: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Rev = s.Value
			}
		}
	}
	return h
}

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	setups   int
	out      string
}

// tracedShare is the traced window's length as a share of the untraced one.
const tracedShare = 0.25

// settleShare is the share of the untraced window's length for which a
// built cluster is left at rest before its set-up counts as done: 1 s at
// the 10 s window, one engine interval, so that the periodic placement pass
// has run on whatever priming left behind before a window opens. It is also
// what holds setup_s within its bound: the work of a set-up is CPU-bound
// and follows the host's speed, which shifts by 30 % between spells of
// minutes, and no statistic over the set-ups of one run removes that (the
// fastest of forty shifts as far as their median). setup.work_s is the
// set-up without the rest.
const settleShare = 0.1

// measure performs one run: it sets the workload up several times (the
// median is setup_s; every env but the last is torn down again), runs the
// timed window on the last env and, in a traced run, the layer drives.
//
// A traced run measures two windows of a quarter length: the first on the
// last untraced env, as the reference for trace.overhead_pct, the second
// on one more env with telemetry on and the benchmark's own spans recorded.
func measure(wl workload, o options) (*result, error) {
	bar := &barriers{out: o.out}
	var tr *tracer
	seconds := o.seconds
	if o.traced {
		tr = &tracer{origin: time.Now()}
		bar.tr = tr
		seconds *= tracedShare
	}
	res := &result{Workload: wl.name, Traced: o.traced, Seed: o.seed, Seconds: seconds, Info: map[string]float64{}, Host: host()}

	settle := time.Duration(o.seconds * settleShare * float64(time.Second))
	var setupS, workS []float64
	build := func(traced bool) (*env, error) {
		e := &env{seed: o.seed, seconds: seconds, traced: traced, bar: bar}
		if traced {
			e.tr = tr
		}
		start := time.Now()
		err := wl.setup(e)
		workS = append(workS, time.Since(start).Seconds())
		if err == nil {
			time.Sleep(settle)
		}
		took := time.Since(start)
		setupS = append(setupS, took.Seconds())
		tr.add("setup", start, start.Add(took), -1, -1)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("set-up %d: %w", len(setupS), err)
		}
		return e, nil
	}
	// release tears an env down and returns its memory before the next one
	// is built, so rss_mb is one cluster's and not a GC-timing sum.
	release := func(e *env) {
		e.close()
		debug.FreeOSMemory()
	}
	e, err := build(false)
	for err == nil && len(setupS) < o.setups {
		release(e)
		e, err = build(false)
	}
	if err != nil {
		return nil, err
	}
	var ref map[string]float64 // the untraced reference window's metrics
	if o.traced {
		_, ref = observe(wl, e)
		release(e)
		if e, err = build(true); err != nil {
			return nil, err
		}
	}
	res.Info["primed_share"] = e.primedShare
	res.Info["setups"] = float64(len(setupS))
	for i, t := range workS {
		res.Info[fmt.Sprintf("setup_work_%02d_s", i+1)] = t
	}

	before := e.snapshot()
	var poll *poller
	if o.traced {
		poll = startPoller(e)
	}
	w, seen := observe(wl, e)
	if poll != nil {
		w.backlogMax, w.queueMax = poll.stop()
	}
	seen["setup_s"] = median(setupS)
	res.Window = seen
	for _, r := range w.recs {
		res.Attempted += int64(r.n)
		res.Failed += r.failed
		res.Samples += r.n
	}
	res.Failed += w.extraFailed
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	for k, v := range w.info {
		res.Info[k] = v
	}

	if o.traced {
		// Read the end-of-run counters at rest: a bounded Flush, which on a
		// leaked mover op (ROADMAP item 1) expires instead of returning.
		node := e.cluster.Node(0)
		bar.bounded("Node.Flush", barrierLimit, node.Flush)
		after := e.snapshot()
		res.PerLayer = layerCounters(e, w, before, after)
		// The timings of the untraced reference window: as steady as this
		// host allows, which is not steady enough to carry a bound.
		for _, d := range timings {
			res.PerLayer["untraced."+d.name] = ref[d.name]
		}
		res.PerLayer["setup.work_s"] = median(workS)
		res.PerLayer["trace.overhead_pct"] = 0
		if ref["ops_per_s"] > 0 {
			res.PerLayer["trace.overhead_pct"] = (ref["ops_per_s"] - seen["ops_per_s"]) / ref["ops_per_s"] * 100
		}
		res.Budget = runDrives(e, wl, w, seen["op_p50_us"], res.PerLayer)
		e.close()
		res.PerLayer["mover.barrier_timeouts"] = float64(bar.timeouts.Load())
		if wl.free {
			for _, t := range []string{"ram", "nvme", "bb", "pfs"} {
				if busy := res.PerLayer["devsim."+t+".busy_s"]; busy != 0 {
					w.note("free-device workload, but devsim.%s.busy_s = %g", t, busy)
				}
			}
		}
		spans := tr.assemble(wl.opSpan, w.open, w.recs)
		res.Spans = selfTimes(spans)
		if err := writeTrace(filepath.Join(o.out, "trace_"+wl.name+".json"), wl.name, spans); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	res.Notes = w.notes
	res.Correct = res.Failed == 0 && len(w.notes) == 0
	return res, nil
}

// observe runs the workload's timed window on e under the usage sampler
// and computes what the window showed.
func observe(wl workload, e *env) (*window, map[string]float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	use := startSampler()
	w := wl.run(e)
	reads := use.stop()
	runtime.ReadMemStats(&after)
	return w, windowMetrics(w, reads, after.Mallocs-before.Mallocs)
}

// windowMetrics computes the end-to-end metrics (but setup_s) and the
// timings of a window from the generators' samples, the usage readings
// taken while it ran and the heap allocations counted around it.
//
// The rate, the latency percentiles and the CPU per op are each computed
// on five equal slices of the time the generators ran, and the median of
// the five is reported: one slow slice does not move them.
func windowMetrics(w *window, reads []usage, mallocs uint64) map[string]float64 {
	var span, blocked int64
	for _, r := range w.recs {
		for _, c := range r.chunks {
			for _, s := range c {
				blocked += int64(s.lat)
				if s.end() > span {
					span = s.end()
				}
			}
		}
	}
	lats := make([][]int64, slices)
	for _, r := range w.recs {
		for _, c := range r.chunks {
			for _, s := range c {
				i := sliceOf(s.end(), span, slices)
				lats[i] = append(lats[i], int64(s.lat))
			}
		}
	}
	rate, p50, p99, cpu := make([]float64, slices), make([]float64, slices), make([]float64, slices), make([]float64, slices)
	for i, l := range lats {
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		from := w.open.Add(time.Duration(span * int64(i) / slices))
		to := w.open.Add(time.Duration(span * int64(i+1) / slices))
		rate[i] = float64(len(l)) / to.Sub(from).Seconds()
		p50[i] = float64(percentile(l, 0.50)) / 1e3
		p99[i] = float64(percentile(l, 0.99)) / 1e3
		if len(l) > 0 {
			cpu[i] = float64((cpuAt(reads, to) - cpuAt(reads, from)).Microseconds()) / float64(len(l))
		}
	}
	var rss []float64
	for _, u := range reads {
		if !u.at.Before(w.open) {
			rss = append(rss, u.rssMB)
		}
	}
	ops := 0
	for _, l := range lats {
		ops += len(l)
	}
	m := map[string]float64{
		"allocs_per_op":  float64(mallocs) / float64(max(ops, 1)),
		"ops_per_s":      median(rate),
		"op_p50_us":      median(p50),
		"op_p99_us":      median(p99),
		"cpu_us_per_op":  median(cpu),
		"rss_mb":         mean(rss),
		"makespan_s":     w.makespan.Seconds(),
		"read_blocked_s": float64(blocked) / 1e9,
		// A workload that attempts no segment read has missed none.
		"hit_ratio": 1,
	}
	if span == 0 {
		m["ops_per_s"] = 0
	}

	if w.hits+w.misses > 0 {
		m["hit_ratio"] = float64(w.hits) / float64(w.hits+w.misses)
	}
	return m
}

// counters is a reading of every public counter the per-layer metrics are
// differences of, summed over the cluster's nodes.
type counters struct {
	mem                       runtime.MemStats
	copied                    int64
	slab                      tiers.SlabStats
	stalls, rescues, zeroCopy int64
	remoteReads, remoteServes int64
	posted, dropped           int64
	aud                       auditor.Stats
	eng                       placement.Stats
	mov                       mover.Stats
	ioc                       ioclient.Stats
	dev                       map[string]devStat // by device name; a shared device counted once
}

func (e *env) snapshot() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.copied = tiers.CopiedBytes()
	c.slab = tiers.ReadSlabStats()
	c.dev = map[string]devStat{"pfs": statOf(e.cluster.FS().Device())}
	seen := map[*devsim.Device]bool{}
	for i := 0; i < e.cluster.Nodes(); i++ {
		srv := e.cluster.Node(i).Server()
		st, rs := srv.StallStats()
		c.stalls, c.rescues = c.stalls+st, c.rescues+rs
		c.zeroCopy += srv.ZeroCopyBytes()
		rr, sv := srv.RemoteStats()
		c.remoteReads, c.remoteServes = c.remoteReads+rr, c.remoteServes+sv
		p, d := srv.Monitor().QueueStats()
		c.posted, c.dropped = c.posted+p, c.dropped+d
		a := srv.Auditor().Counters()
		c.aud.Events += a.Events
		c.aud.Invalidations += a.Invalidations
		g := srv.Engine().Counters()
		c.eng.Runs += g.Runs
		c.eng.Placements += g.Placements
		c.eng.Promotions += g.Promotions
		c.eng.Demotions += g.Demotions
		c.eng.Evictions += g.Evictions
		c.eng.FailedMoves += g.FailedMoves
		m := srv.Engine().MoverStats()
		c.mov.Submitted += m.Submitted
		c.mov.Executed += m.Executed
		c.mov.Failed += m.Failed
		c.mov.Coalesced += m.Coalesced
		c.mov.Superseded += m.Superseded
		c.mov.Cancelled += m.Cancelled
		c.mov.Retried += m.Retried
		c.mov.Outstanding += m.Outstanding
		io := srv.IOClient().Stats()
		c.ioc.Fetches += io.Fetches
		c.ioc.BytesMoved += io.BytesMoved
		for _, store := range srv.Hierarchy().Stores() {
			if d := store.Device(); d != nil && !seen[d] {
				seen[d] = true
				s, prev := statOf(d), c.dev[store.Name()]
				c.dev[store.Name()] = devStat{prev.ops + s.ops, prev.bytes + s.bytes, prev.busy + s.busy}
			}
		}
	}
	return c
}

// layerCounters turns two counter readings around the window, the traced
// run's telemetry registry and the window's own observations into the
// per-layer metrics that are counts and ratios. The timings come from the
// layer drives.
func layerCounters(e *env, w *window, a, b counters) map[string]float64 {
	var ops float64
	for _, r := range w.recs {
		ops += float64(r.n)
	}
	if ops == 0 {
		ops = 1
	}
	m := map[string]float64{
		"server.stalls":             float64(b.stalls - a.stalls),
		"server.stall_rescues":      float64(b.rescues - a.rescues),
		"server.zero_copy_bytes":    float64(b.zeroCopy - a.zeroCopy),
		"server.remote_reads":       float64(b.remoteReads - a.remoteReads),
		"server.remote_serves":      float64(b.remoteServes - a.remoteServes),
		"tiers.bytes_copied_per_op": float64(b.copied-a.copied) / ops,
		"runtime.gc_pause_ms":       float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6,
		"monitor.posted":            float64(b.posted - a.posted),
		"monitor.dropped":           float64(b.dropped - a.dropped),
		"monitor.backlog_max":       float64(w.backlogMax),
		"auditor.events":            float64(b.aud.Events - a.aud.Events),
		"auditor.invalidations":     float64(b.aud.Invalidations - a.aud.Invalidations),
		"placement.runs":            float64(b.eng.Runs - a.eng.Runs),
		"placement.placements":      float64(b.eng.Placements - a.eng.Placements),
		"placement.promotions":      float64(b.eng.Promotions - a.eng.Promotions),
		"placement.demotions":       float64(b.eng.Demotions - a.eng.Demotions),
		"placement.evictions":       float64(b.eng.Evictions - a.eng.Evictions),
		"placement.failed_moves":    float64(b.eng.FailedMoves - a.eng.FailedMoves),
		"mover.submitted":           float64(b.mov.Submitted - a.mov.Submitted),
		"mover.executed":            float64(b.mov.Executed - a.mov.Executed),
		"mover.failed":              float64(b.mov.Failed - a.mov.Failed),
		"mover.coalesced":           float64(b.mov.Coalesced - a.mov.Coalesced),
		"mover.superseded":          float64(b.mov.Superseded - a.mov.Superseded),
		"mover.cancelled":           float64(b.mov.Cancelled - a.mov.Cancelled),
		"mover.retried":             float64(b.mov.Retried - a.mov.Retried),
		"mover.max_queue_depth":     float64(w.queueMax),
		"mover.outstanding_at_end":  float64(b.mov.Outstanding),
		"ioclient.fetches":          float64(b.ioc.Fetches - a.ioc.Fetches),
		"ioclient.bytes_moved":      float64(b.ioc.BytesMoved - a.ioc.BytesMoved),
		"pfs.read_ops":              float64(b.dev["pfs"].ops - a.dev["pfs"].ops),
		"pfs.bytes":                 float64(b.dev["pfs"].bytes - a.dev["pfs"].bytes),
		// Workload-specific observations default to 0 where they do not apply.
		"gateway.ttfb_p50_us":      0,
		"gateway.status_2xx":       0,
		"gateway.status_4xx":       0,
		"gateway.status_5xx":       0,
		"auditor.staleness_p50_ms": 0,
	}
	slabGets := float64(b.slab.Gets - a.slab.Gets)
	m["tiers.slab_hit_ratio"] = 0
	if slabGets > 0 {
		m["tiers.slab_hit_ratio"] = float64(b.slab.Hits-a.slab.Hits) / slabGets
	}
	for _, t := range []string{"ram", "nvme", "bb", "pfs"} {
		m["devsim."+t+".busy_s"] = (b.dev[t].busy - a.dev[t].busy).Seconds()
		m["devsim."+t+".ops"] = float64(b.dev[t].ops - a.dev[t].ops)
		m["devsim."+t+".bytes"] = float64(b.dev[t].bytes - a.dev[t].bytes)
	}
	for k, v := range w.layer {
		m[k] = v
	}

	// The traced run's telemetry: stage histograms, the lifecycle ledger and
	// the transport counters, merged over the nodes. They cover the env's
	// whole life (priming included), as the registry cannot be reset.
	snap, _ := e.cluster.TelemetrySnapshot()
	us := func(h telemetry.HistSnapshot, q float64) float64 { return float64(h.Quantile(q)) / 1e3 }
	wait := histOf(snap, telemetry.StageHistName, telemetry.StageQueueWait)
	m["events.queue_wait_p50_us"], m["events.queue_wait_p99_us"] = us(wait, 0.5), us(wait, 0.99)
	m["auditor.audit_p50_us"] = us(histOf(snap, telemetry.StageHistName, telemetry.StageAudit), 0.5)
	decide := histOf(snap, telemetry.StageHistName, telemetry.StageDecide)
	m["placement.decide_p50_us"], m["placement.decide_p99_us"] = us(decide, 0.5), us(decide, 0.99)
	m["comm.bytes_in"] = float64(counterOf(snap, "hfetch_comm_bytes_in_total"))
	m["comm.bytes_out"] = float64(counterOf(snap, "hfetch_comm_bytes_out_total"))
	var timely, late, wasted, redundant int64
	var lead, fetch telemetry.HistSnapshot
	for i := 0; i < e.cluster.Nodes(); i++ {
		if lc := e.cluster.Node(i).Telemetry().Lifecycle(); lc != nil {
			t, l, ws, r := lc.EffCounts()
			timely, late, wasted, redundant = timely+t, late+l, wasted+ws, redundant+r
			lead.Merge(lc.LeadHist().Snapshot())
		}
		if cn := e.cluster.ClusterNode(i); cn != nil {
			fetch.Merge(cn.Fetcher().FetchSnapshot())
		}
	}
	m["prefetch.timely"], m["prefetch.late"] = float64(timely), float64(late)
	m["prefetch.wasted"], m["prefetch.redundant"] = float64(wasted), float64(redundant)
	m["prefetch.lead_p50_us"] = us(lead, 0.5)
	m["cluster.fetch_p50_us"], m["cluster.fetch_p99_us"] = us(fetch, 0.5), us(fetch, 0.99)
	// Bytes on the wire, both directions of every connection counted once,
	// per payload byte a remote read returned.
	m["cluster.wire_bytes_per_payload_byte"] = 0
	if remote := b.remoteReads - a.remoteReads; remote > 0 {
		m["cluster.wire_bytes_per_payload_byte"] = m["comm.bytes_out"] / (float64(b.remoteReads) * segSize)
	}
	return m
}

// histOf merges the histograms of family name whose labels mention label.
func histOf(s telemetry.Snapshot, name, label string) telemetry.HistSnapshot {
	var out telemetry.HistSnapshot
	for _, ms := range s.Metrics {
		if ms.Name == name && ms.Hist != nil && strings.Contains(ms.Labels, `"`+label+`"`) {
			out.Merge(*ms.Hist)
		}
	}
	return out
}

func counterOf(s telemetry.Snapshot, name string) int64 {
	var n int64
	for _, ms := range s.Metrics {
		if ms.Name == name {
			n += ms.Value
		}
	}
	return n
}

// poller samples, once a millisecond during the traced window, the two
// depths that have no high-water counter: the monitor's backlog and the
// mover's deepest queue.
type poller struct {
	stopCh     chan struct{}
	wg         sync.WaitGroup
	backlogMax int64
	queueMax   int64
}

func startPoller(e *env) *poller {
	p := &poller{stopCh: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stopCh:
				return
			case <-tick.C:
			}
			var backlog int64
			for i := 0; i < e.cluster.Nodes(); i++ {
				srv := e.cluster.Node(i).Server()
				backlog += int64(srv.Monitor().Backlog())
				for _, d := range srv.Engine().MoverStats().QueueDepths {
					if int64(d) > p.queueMax {
						p.queueMax = int64(d)
					}
				}
			}
			if backlog > p.backlogMax {
				p.backlogMax = backlog
			}
		}
	}()
	return p
}

func (p *poller) stop() (backlogMax, queueMax int64) {
	close(p.stopCh)
	p.wg.Wait()
	return p.backlogMax, p.queueMax
}
