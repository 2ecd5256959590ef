// Command hfetchctl inspects and exercises a running hfetchd daemon.
//
// Usage:
//
//	hfetchctl -addr host:port stats
//	hfetchctl -addr host:port tiers
//	hfetchctl -addr host:port nodes
//	hfetchctl -addr host:port metrics [raw]
//	hfetchctl -addr host:port spans
//	hfetchctl -addr host:port trace [-csv] [-o file]
//	hfetchctl -addr host:port top [-interval 2s] [-n count]
//	hfetchctl -addr host:port create <name> <size>
//	hfetchctl -addr host:port read <name> <off> <len>
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hfetch/internal/core/remote"
	"hfetch/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "hfetchd address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	c, err := remote.Dial(*addr)
	if err != nil {
		log.Fatalf("hfetchctl: %v", err)
	}
	defer c.Close()

	switch args[0] {
	case "ping":
		start := time.Now()
		if !c.Ping() {
			log.Fatalf("hfetchctl: daemon at %s did not answer", *addr)
		}
		fmt.Printf("pong from %s in %v\n", *addr, time.Since(start).Round(time.Microsecond))
	case "stats":
		st, err := c.ServerStats()
		if err != nil {
			log.Fatalf("hfetchctl: %v", err)
		}
		fmt.Printf("node            %s\n", st.Node)
		fmt.Printf("events          %d (reads %d, invalidations %d)\n",
			st.Events, st.Reads, st.Invalidations)
		fmt.Printf("segments seen   %d\n", st.SegmentsSeen)
		fmt.Printf("engine runs     %d\n", st.EngineRuns)
		fmt.Printf("placements      %d (promotions %d, demotions %d, evictions %d)\n",
			st.Placements, st.Promotions, st.Demotions, st.Evictions)
		fmt.Printf("remote traffic  %d reads issued, %d served\n", st.RemoteReads, st.RemoteServes)
		fmt.Printf("server I/O      %s\n", st.IO)
	case "metrics":
		fs := flag.NewFlagSet("metrics", flag.ExitOnError)
		fleet := fs.Bool("fleet", false, "merge metrics from every reachable cluster member")
		fs.Parse(args[1:]) //nolint:errcheck // ExitOnError
		raw := fs.NArg() > 0 && fs.Arg(0) == "raw"
		var snap telemetry.Snapshot
		if *fleet {
			nodes, stale, err := fleetMetrics(c)
			if err != nil {
				log.Fatalf("hfetchctl: %v", err)
			}
			snaps := make([]telemetry.Snapshot, 0, len(nodes))
			for _, fn := range nodes {
				snaps = append(snaps, fn.Snap)
			}
			snap = telemetry.MergeSnapshots(snaps...)
			fmt.Printf("# fleet: %d nodes merged", len(nodes))
			if len(stale) > 0 {
				fmt.Printf(", stale_nodes: %s", strings.Join(stale, ","))
			}
			fmt.Println()
		} else {
			var err error
			snap, err = c.Metrics()
			if err != nil {
				log.Fatalf("hfetchctl: %v", err)
			}
		}
		if len(snap.Metrics) == 0 {
			fmt.Println("no metrics (daemon runs with telemetry disabled)")
			return
		}
		if raw {
			snap.WriteText(os.Stdout)
			return
		}
		printMetrics(snap)
	case "spans":
		_, recs, err := c.TraceRecords()
		if err != nil {
			log.Fatalf("hfetchctl: %v", err)
		}
		if len(recs) == 0 {
			fmt.Println("no traced spans (telemetry or lifecycle tracing disabled, or no traffic yet)")
			return
		}
		fmt.Printf("%-12s %-24s %8s %-8s %12s\n", "STAGE", "FILE", "SEG", "TIER", "DURATION")
		for _, r := range recs {
			for _, e := range r.Events {
				fmt.Printf("%-12s %-24s %8d %-8s %12v\n",
					e.Stage, ellipsis(r.File, 24), r.Seg, orDash(e.Tier), time.Duration(e.Nanos).Round(time.Microsecond))
			}
		}
	case "tiers":
		ti, err := c.Tiers()
		if err != nil {
			log.Fatalf("hfetchctl: %v", err)
		}
		fmt.Printf("%-8s %12s %12s %10s\n", "TIER", "CAPACITY", "USED", "SEGMENTS")
		for _, t := range ti {
			fmt.Printf("%-8s %12d %12d %10d\n", t.Name, t.Capacity, t.Used, t.Segments)
		}
	case "nodes":
		nodes, err := c.Nodes()
		if err != nil {
			log.Fatalf("hfetchctl: %v", err)
		}
		fmt.Printf("%-12s %-22s %-22s %-8s %12s %10s %12s\n",
			"NODE", "ADDR", "OPS", "STATE", "HEARTBEAT", "KEYS", "FETCH P99")
		for _, n := range nodes {
			hb := "-"
			if n.HeartbeatAgeNanos > 0 {
				hb = time.Duration(n.HeartbeatAgeNanos).Round(time.Millisecond).String()
			}
			p99 := "-"
			if n.FetchP99Nanos > 0 {
				p99 = time.Duration(n.FetchP99Nanos).Round(time.Microsecond).String()
			}
			fmt.Printf("%-12s %-22s %-22s %-8s %12s %10d %12s\n",
				n.Name, ellipsis(n.Addr, 22), ellipsis(orDash(n.Ops), 22), n.State, hb, n.Keys, p99)
		}
	case "trace":
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		csv := fs.Bool("csv", false, "export the access-record CSV instead of trace JSON")
		fleet := fs.Bool("fleet", false, "merge lifecycle traces from every reachable member (one Perfetto lane per node)")
		out := fs.String("o", "", "write to file instead of stdout")
		fs.Parse(args[1:]) //nolint:errcheck // ExitOnError
		var data []byte
		var err error
		if *fleet {
			if *csv {
				log.Fatalf("hfetchctl: -fleet and -csv are mutually exclusive")
			}
			data, err = fleetTrace(c)
		} else {
			data, err = c.Trace(*csv)
		}
		if err != nil {
			log.Fatalf("hfetchctl: %v", err)
		}
		if *out == "" {
			os.Stdout.Write(data) //nolint:errcheck // best-effort stdout
			return
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatalf("hfetchctl: %v", err)
		}
		kind := "trace JSON (load in Perfetto or chrome://tracing)"
		if *csv {
			kind = "access CSV"
		}
		fmt.Printf("wrote %d bytes of %s to %s\n", len(data), kind, *out)
	case "top":
		fs := flag.NewFlagSet("top", flag.ExitOnError)
		interval := fs.Duration("interval", 2*time.Second, "refresh interval")
		count := fs.Int("n", 0, "number of refreshes (0 = until interrupted)")
		fleet := fs.Bool("fleet", false, "merge the view across every reachable cluster member")
		fs.Parse(args[1:]) //nolint:errcheck // ExitOnError
		if *fleet {
			runTopFleet(c, *addr, *interval, *count)
		} else {
			runTop(c, *addr, *interval, *count)
		}
	case "create":
		if len(args) != 3 {
			usage()
		}
		size := mustInt(args[2])
		if err := c.CreateFile(args[1], size); err != nil {
			log.Fatalf("hfetchctl: %v", err)
		}
		fmt.Printf("created %s (%d bytes)\n", args[1], size)
	case "read":
		if len(args) != 4 {
			usage()
		}
		f, err := c.Open(args[1])
		if err != nil {
			log.Fatalf("hfetchctl: %v", err)
		}
		defer f.Close()
		off, ln := mustInt(args[2]), mustInt(args[3])
		buf := make([]byte, ln)
		n, err := f.ReadAt(buf, off)
		if err != nil {
			log.Fatalf("hfetchctl: %v", err)
		}
		fmt.Printf("read %d bytes; client stats: %s\n", n, c.Stats())
	default:
		usage()
	}
}

// runTop renders a refreshing terminal status view: hit ratio, tier
// occupancy, mover queue depths, the HTTP gateway's request rate and
// QoS counters (when the daemon runs one), and the
// prefetch-effectiveness ledger.
func runTop(c *remote.Client, addr string, interval time.Duration, count int) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	var prevGwReqs int64
	var prevAt time.Time
	for i := 0; count == 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		snap, err := c.Metrics()
		if err != nil {
			log.Fatalf("hfetchctl: %v", err)
		}
		ti, err := c.Tiers()
		if err != nil {
			log.Fatalf("hfetchctl: %v", err)
		}
		fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		fmt.Printf("hfetch top — %s — %s (refresh %v, ctrl-c to quit)\n\n",
			addr, time.Now().Format("15:04:05"), interval)

		hits := metricSum(snap, "hfetch_tier_read_hits_total")
		misses := metricSum(snap, "hfetch_read_misses_total")
		ratio := 0.0
		if hits+misses > 0 {
			ratio = float64(hits) / float64(hits+misses)
		}
		var stalls int64
		if h := metricHist(snap, "hfetch_read_stall_nanos"); h != nil {
			stalls = h.Count
		}
		rescues := metricSum(snap, "hfetch_read_stall_rescues_total")
		fmt.Printf("reads      hits %-10d misses %-10d hit ratio %.3f\n", hits, misses, ratio)
		fmt.Printf("stalls     %-10d rescued %-10d\n\n", stalls, rescues)

		depths := metricByLabel(snap, "hfetch_mover_queue_depth")
		fmt.Printf("%-8s %12s %12s %10s %8s %11s\n",
			"TIER", "CAPACITY", "USED", "SEGMENTS", "FILL%", "MOVER-QUEUE")
		for _, t := range ti {
			fill := 0.0
			if t.Capacity > 0 {
				fill = 100 * float64(t.Used) / float64(t.Capacity)
			}
			fmt.Printf("%-8s %12d %12d %10d %7.1f%% %11d\n",
				t.Name, t.Capacity, t.Used, t.Segments, fill,
				depths[telemetry.RenderLabels("tier", t.Name)])
		}
		fmt.Printf("mover inflight %d\n\n", metricSum(snap, "hfetch_mover_inflight"))

		// Gateway section: rendered only when the daemon serves the
		// HTTP range-read gateway (the family is registered at New).
		// Rate is the counter delta across refreshes, so the first
		// frame shows "-".
		if hasFamily(snap, "hfetch_gateway_requests_total") {
			gwReqs := metricSum(snap, "hfetch_gateway_requests_total")
			now := time.Now()
			rate := "-"
			if i > 0 && now.After(prevAt) {
				rate = fmt.Sprintf("%.0f/s", float64(gwReqs-prevGwReqs)/now.Sub(prevAt).Seconds())
			}
			prevGwReqs, prevAt = gwReqs, now
			fmt.Printf("gateway    req %-10d rate %-9s bytes %-12d inflight %d\n",
				gwReqs, rate, metricSum(snap, "hfetch_gateway_bytes_total"),
				metricSum(snap, "hfetch_gateway_inflight"))
			fmt.Printf("           shed %-8d degraded %-8d aborted %d\n",
				metricSum(snap, "hfetch_gateway_shed_total"),
				metricSum(snap, "hfetch_gateway_degraded_total"),
				metricSum(snap, "hfetch_gateway_aborted_total"))
			if h := metricHist(snap, "hfetch_gateway_ttfb_nanos"); h != nil && h.Count > 0 {
				fmt.Printf("           ttfb p50 %v p99 %v max %v\n",
					dur(h.Quantile(0.5)), dur(h.Quantile(0.99)), dur(h.Max))
			}
			fmt.Println()
		}

		timely := metricSum(snap, "hfetch_prefetch_timely_total")
		late := metricSum(snap, "hfetch_prefetch_late_total")
		wasted := metricSum(snap, "hfetch_prefetch_wasted_total")
		redundant := metricSum(snap, "hfetch_prefetch_redundant_total")
		if timely+late+wasted+redundant == 0 && metricSum(snap, "hfetch_lifecycle_active") == 0 {
			fmt.Println("prefetch effectiveness: (lifecycle tracing disabled or no prefetches yet)")
		} else {
			fmt.Printf("prefetch   timely %-8d late %-8d wasted %-8d redundant %-8d\n",
				timely, late, wasted, redundant)
			fmt.Printf("           effectiveness %.1f%% (rolling)   traces active %d, completed %d, dropped %d\n",
				float64(metricSum(snap, "hfetch_prefetch_effectiveness_ppm"))/1e4,
				metricSum(snap, "hfetch_lifecycle_active"),
				metricSum(snap, "hfetch_lifecycle_completed_total"),
				metricSum(snap, "hfetch_lifecycle_dropped_total"))
			if h := metricHist(snap, "hfetch_prefetch_lead_nanos"); h != nil && h.Count > 0 {
				fmt.Printf("           lead time p50 %v p99 %v max %v\n",
					dur(h.Quantile(0.5)), dur(h.Quantile(0.99)), dur(h.Max))
			}
		}
	}
}

// fleetNode is one member's telemetry snapshot in a fleet fan-out.
type fleetNode struct {
	Name string
	Snap telemetry.Snapshot
}

// fleetDial runs fn against every member of the primary daemon's
// membership view, fanning out over the gossiped ops addresses. Members
// that are dead, have no ops address, or fail the dial/request land in
// stale — a partial fleet view with the gaps named beats no view.
func fleetDial(c *remote.Client, fn func(name string, fc *remote.Client) error) (stale []string, err error) {
	nodes, err := c.Nodes()
	if err != nil {
		return nil, fmt.Errorf("membership query: %w", err)
	}
	for _, n := range nodes {
		if n.State == "dead" || n.Ops == "" {
			stale = append(stale, n.Name)
			continue
		}
		fc, derr := remote.Dial(n.Ops)
		if derr != nil {
			stale = append(stale, n.Name)
			continue
		}
		ferr := fn(n.Name, fc)
		fc.Close() //nolint:errcheck // read-only connection
		if ferr != nil {
			stale = append(stale, n.Name)
		}
	}
	sort.Strings(stale)
	return stale, nil
}

// fleetMetrics fans the metrics query out across the membership.
func fleetMetrics(c *remote.Client) (nodes []fleetNode, stale []string, err error) {
	stale, err = fleetDial(c, func(name string, fc *remote.Client) error {
		snap, merr := fc.Metrics()
		if merr != nil {
			return merr
		}
		nodes = append(nodes, fleetNode{Name: name, Snap: snap})
		return nil
	})
	return nodes, stale, err
}

// fleetTrace assembles the fleet-merged Perfetto export: every
// reachable member's raw lifecycle records on its own process lane.
func fleetTrace(c *remote.Client) ([]byte, error) {
	var lanes []telemetry.NodeTraces
	stale, err := fleetDial(c, func(name string, fc *remote.Client) error {
		node, recs, terr := fc.TraceRecords()
		if terr != nil {
			return terr
		}
		if node == "" {
			node = name
		}
		lanes = append(lanes, telemetry.NodeTraces{Node: node, Recs: recs})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "hfetchctl: stale_nodes: %s\n", strings.Join(stale, ","))
	}
	var buf strings.Builder
	if err := telemetry.WriteFleetTraceJSON(&buf, lanes); err != nil {
		return nil, err
	}
	return []byte(buf.String()), nil
}

// runTopFleet renders the refreshing fleet view: cluster-merged hit
// ratio and prefetch effectiveness, then one breakdown row per member.
// Unreachable members are listed as stale instead of aborting the view.
func runTopFleet(c *remote.Client, addr string, interval time.Duration, count int) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	for i := 0; count == 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		nodes, stale, err := fleetMetrics(c)
		if err != nil {
			log.Fatalf("hfetchctl: %v", err)
		}
		snaps := make([]telemetry.Snapshot, 0, len(nodes))
		for _, fn := range nodes {
			snaps = append(snaps, fn.Snap)
		}
		merged := telemetry.MergeSnapshots(snaps...)

		fmt.Print("\x1b[2J\x1b[H")
		fmt.Printf("hfetch top — fleet via %s — %s (refresh %v, ctrl-c to quit)\n\n",
			addr, time.Now().Format("15:04:05"), interval)

		hits := metricSum(merged, "hfetch_tier_read_hits_total")
		misses := metricSum(merged, "hfetch_read_misses_total")
		ratio := 0.0
		if hits+misses > 0 {
			ratio = float64(hits) / float64(hits+misses)
		}
		fmt.Printf("fleet      nodes %-4d hits %-10d misses %-10d hit ratio %.3f\n",
			len(nodes), hits, misses, ratio)
		timely := metricSum(merged, "hfetch_prefetch_timely_total")
		late := metricSum(merged, "hfetch_prefetch_late_total")
		wasted := metricSum(merged, "hfetch_prefetch_wasted_total")
		redundant := metricSum(merged, "hfetch_prefetch_redundant_total")
		if total := timely + late + wasted + redundant; total > 0 {
			fmt.Printf("prefetch   timely %-8d late %-8d wasted %-8d redundant %-8d effectiveness %.1f%%\n",
				timely, late, wasted, redundant, 100*float64(timely)/float64(total))
		}
		fmt.Printf("cluster    invalidations sent %-8d peer fetches %-8d watchdog trips %d\n\n",
			metricSum(merged, "hfetch_cluster_invalidations_sent_total"),
			metricSum(merged, "hfetch_remote_reads_total"),
			metricSum(merged, "hfetch_watchdog_trips_total"))

		fmt.Printf("%-12s %10s %10s %8s %8s %8s %9s %10s\n",
			"NODE", "HITS", "MISSES", "RATIO", "TIMELY", "LATE", "EFFECT%", "GW-REQS")
		for _, fn := range nodes {
			nh := metricSum(fn.Snap, "hfetch_tier_read_hits_total")
			nm := metricSum(fn.Snap, "hfetch_read_misses_total")
			nr := 0.0
			if nh+nm > 0 {
				nr = float64(nh) / float64(nh+nm)
			}
			nt := metricSum(fn.Snap, "hfetch_prefetch_timely_total")
			nl := metricSum(fn.Snap, "hfetch_prefetch_late_total")
			eff := float64(metricSum(fn.Snap, "hfetch_prefetch_effectiveness_ppm")) / 1e4
			fmt.Printf("%-12s %10d %10d %8.3f %8d %8d %8.1f%% %10d\n",
				fn.Name, nh, nm, nr, nt, nl, eff,
				metricSum(fn.Snap, "hfetch_gateway_requests_total"))
		}
		if len(stale) > 0 {
			fmt.Printf("\nstale_nodes: %s (dead, no ops address, or unreachable)\n",
				strings.Join(stale, ","))
		}
	}
}

// metricSum sums all series of one metric family across labels.
func metricSum(snap telemetry.Snapshot, name string) int64 {
	var v int64
	for _, m := range snap.Metrics {
		if m.Name == name && m.Hist == nil {
			v += m.Value
		}
	}
	return v
}

// hasFamily reports whether any series of the family exists in the
// snapshot (distinguishing "subsystem absent" from "counted zero").
func hasFamily(snap telemetry.Snapshot, name string) bool {
	for _, m := range snap.Metrics {
		if m.Name == name {
			return true
		}
	}
	return false
}

// metricByLabel maps a family's rendered label string to its value.
func metricByLabel(snap telemetry.Snapshot, name string) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range snap.Metrics {
		if m.Name == name && m.Hist == nil {
			out[m.Labels] += m.Value
		}
	}
	return out
}

// metricHist returns the merged histogram of one family (nil when absent).
func metricHist(snap telemetry.Snapshot, name string) *telemetry.HistSnapshot {
	var out *telemetry.HistSnapshot
	for _, m := range snap.Metrics {
		if m.Name == name && m.Hist != nil {
			if out == nil {
				h := *m.Hist
				out = &h
			} else {
				out.Merge(*m.Hist)
			}
		}
	}
	return out
}

// printMetrics renders a telemetry snapshot for humans: counters and
// gauges as plain values, histograms as count/mean/p50/p90/p99/max,
// with *_nanos series shown as durations.
func printMetrics(snap telemetry.Snapshot) {
	ms := append([]telemetry.MetricSnapshot(nil), snap.Metrics...)
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].Name != ms[j].Name {
			return ms[i].Name < ms[j].Name
		}
		return ms[i].Labels < ms[j].Labels
	})
	for _, m := range ms {
		name := m.Name + m.Labels
		if m.Hist != nil {
			h := m.Hist
			if h.Count == 0 {
				fmt.Printf("%-64s (no samples)\n", name)
				continue
			}
			if strings.Contains(m.Name, "_nanos") {
				fmt.Printf("%-64s count %-8d mean %-10v p50 %-10v p90 %-10v p99 %-10v max %v\n",
					name, h.Count, dur(int64(h.Mean())), dur(h.Quantile(0.5)),
					dur(h.Quantile(0.9)), dur(h.Quantile(0.99)), dur(h.Max))
			} else {
				fmt.Printf("%-64s count %-8d mean %-10.0f p50 %-10d p90 %-10d p99 %-10d max %d\n",
					name, h.Count, h.Mean(), h.Quantile(0.5),
					h.Quantile(0.9), h.Quantile(0.99), h.Max)
			}
			continue
		}
		fmt.Printf("%-64s %d\n", name, m.Value)
	}
}

func dur(nanos int64) time.Duration {
	return time.Duration(nanos).Round(time.Microsecond)
}

func ellipsis(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n+1:]
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func mustInt(s string) int64 {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		log.Fatalf("hfetchctl: bad number %q", s)
	}
	return v
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hfetchctl [-addr host:port] <command>
commands:
  ping                      liveness probe
  stats                     show server counters
  tiers                     show tier occupancy
  nodes                     show cluster membership (state, heartbeat age, keys, fetch p99)
  metrics [-fleet] [raw]    show telemetry (raw = Prometheus text; -fleet merges all members)
  spans                     show the span events of recent lifecycle traces
  trace [-csv|-fleet] [-o file]  export lifecycle traces (Perfetto JSON; -fleet = one lane per node)
  top [-interval d] [-n k] [-fleet]  live status view (hit ratio, tiers, mover, gateway, effectiveness)
  create <name> <size>      register a synthetic file
  read <name> <off> <len>   read through the prefetcher`)
	os.Exit(2)
}
