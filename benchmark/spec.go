package main

import (
	"fmt"
	"strings"
)

// metricDef is one named metric. The same names, units and directions are
// written in BENCHMARK.json; spec_test.go fails when the two lists differ.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEnd lists the metrics that carry a regression bound. Every workload
// reports every one of them from its untraced window, and each is steady
// on a host whose speed is not: a count, a ratio, a resident set, or a time
// that modeled devices or the window's own length decide.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"hit_ratio", "ratio", true},
	{"allocs_per_op", "count", false},
	{"rss_mb", "MB", false},
	{"makespan_s", "s", false},
	{"read_blocked_s", "s", false},
}

// timings are what a user of the system feels, and what the host's other
// tenants move by a quarter from one minute to the next (README.md, "Why
// the timings carry no bound"). Every run prints them; the traced run
// reports those of its untraced reference window as per-layer metrics
// untraced.<name>.
var timings = []metricDef{
	{"ops_per_s", "1/s", true},
	{"op_p50_us", "us", false},
	{"op_p99_us", "us", false},
	{"cpu_us_per_op", "us", false},
}

// perLayer lists the single-layer metrics of the traced run, named
// <package>.<metric>. BENCHMARK.json says which end-to-end metric each is
// expected to move; README.md has the full table.
var perLayer = []metricDef{
	{"untraced.ops_per_s", "1/s", true},
	{"untraced.op_p50_us", "us", false},
	{"untraced.op_p99_us", "us", false},
	{"untraced.cpu_us_per_op", "us", false},
	{"setup.work_s", "s", false},
	{"agent.self_ns", "ns", false},
	{"agent.unattributed_ns", "ns", false},
	{"server.read_prefetched_ns", "ns", false},
	{"server.rangeview_ns", "ns", false},
	{"server.stalls", "count", false},
	{"server.stall_rescues", "count", true},
	{"server.zero_copy_bytes", "bytes", true},
	{"server.remote_reads", "count", false},
	{"server.remote_serves", "count", false},
	{"tiers.view_ns", "ns", false},
	{"tiers.readvec4_ns", "ns", false},
	{"tiers.putbuf_ns", "ns", false},
	{"tiers.slab_get_put_ns", "ns", false},
	{"tiers.slab_hit_ratio", "ratio", true},
	{"tiers.bytes_copied_per_op", "bytes", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"events.post_ns", "ns", false},
	{"events.take_batch_ns_per_event", "ns", false},
	{"events.queue_wait_p50_us", "us", false},
	{"events.queue_wait_p99_us", "us", false},
	{"monitor.posted", "count", true},
	{"monitor.dropped", "count", false},
	{"monitor.backlog_max", "count", false},
	{"auditor.handle_batch_ns_per_event", "ns", false},
	{"auditor.events", "count", true},
	{"auditor.invalidations", "count", false},
	{"auditor.audit_p50_us", "us", false},
	{"auditor.staleness_p50_ms", "ms", false},
	{"score.update_ns", "ns", false},
	{"dhm.apply_ns", "ns", false},
	{"dhm.get_ns", "ns", false},
	{"placement.pass_us_4096", "us", false},
	{"placement.runs", "count", false},
	{"placement.placements", "count", false},
	{"placement.promotions", "count", false},
	{"placement.demotions", "count", false},
	{"placement.evictions", "count", false},
	{"placement.failed_moves", "count", false},
	{"placement.decide_p50_us", "us", false},
	{"placement.decide_p99_us", "us", false},
	{"mover.submit_drain_us_1024", "us", false},
	{"mover.submitted", "count", false},
	{"mover.executed", "count", true},
	{"mover.failed", "count", false},
	{"mover.coalesced", "count", true},
	{"mover.superseded", "count", false},
	{"mover.cancelled", "count", false},
	{"mover.retried", "count", false},
	{"mover.max_queue_depth", "count", false},
	{"mover.outstanding_at_end", "count", false},
	{"mover.barrier_timeouts", "count", false},
	{"ioclient.fetch_us", "us", false},
	{"ioclient.fetches", "count", false},
	{"ioclient.bytes_moved", "bytes", false},
	{"pfs.read_ops", "count", false},
	{"pfs.bytes", "bytes", false},
	{"devsim.ram.busy_s", "s", false},
	{"devsim.ram.ops", "count", false},
	{"devsim.ram.bytes", "bytes", false},
	{"devsim.nvme.busy_s", "s", false},
	{"devsim.nvme.ops", "count", false},
	{"devsim.nvme.bytes", "bytes", false},
	{"devsim.bb.busy_s", "s", false},
	{"devsim.bb.ops", "count", false},
	{"devsim.bb.bytes", "bytes", false},
	{"devsim.pfs.busy_s", "s", false},
	{"devsim.pfs.ops", "count", false},
	{"devsim.pfs.bytes", "bytes", false},
	{"prefetch.timely", "count", true},
	{"prefetch.late", "count", false},
	{"prefetch.wasted", "count", false},
	{"prefetch.redundant", "count", false},
	{"prefetch.lead_p50_us", "us", true},
	{"gateway.serve_us", "us", false},
	{"gateway.http_overhead_us", "us", false},
	{"gateway.ttfb_p50_us", "us", false},
	{"gateway.status_2xx", "count", true},
	{"gateway.status_4xx", "count", false},
	{"gateway.status_5xx", "count", false},
	{"comm.tcp_roundtrip_us_64k", "us", false},
	{"comm.inproc_roundtrip_us_64k", "us", false},
	{"comm.bytes_in", "bytes", false},
	{"comm.bytes_out", "bytes", false},
	{"cluster.fetch_p50_us", "us", false},
	{"cluster.fetch_p99_us", "us", false},
	{"cluster.wire_bytes_per_payload_byte", "ratio", false},
	{"trace.overhead_pct", "%", false},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its measurement.
type metrics map[string]value

// fill returns m as the reported form of defs. A name of defs that m lacks
// is an error: a broken measurement must not read as a fast zero.
func fill(defs []metricDef, m map[string]float64) (metrics, error) {
	out := make(metrics, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}
