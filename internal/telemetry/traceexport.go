package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace export in the Chrome trace_event JSON format, loadable by
// chrome://tracing and by Perfetto's legacy-JSON importer: one "thread"
// (tid) per lifecycle trace, duration ("X") events for timed stages and
// instant ("i") events for markers, timestamps in microseconds.

// appendRecEvents renders one lifecycle trace onto evs under the given
// pid (one pid per node in fleet exports).
func appendRecEvents(evs []map[string]any, pid int, rec TraceRecord) []map[string]any {
	label := fmt.Sprintf("%s#%d", rec.File, rec.Seg)
	if rec.Done {
		label += " [" + rec.Class.String() + "]"
	}
	evs = append(evs, map[string]any{
		"name": "thread_name", "ph": "M", "pid": pid, "tid": rec.ID,
		"args": map[string]any{"name": label},
	})
	for _, e := range rec.Events {
		ev := map[string]any{
			"name": e.Stage,
			"cat":  "hfetch",
			"pid":  pid,
			"tid":  rec.ID,
			"ts":   float64(e.Start.UnixNano()) / 1e3,
			"args": map[string]any{
				"file": rec.File, "seg": rec.Seg,
				"tier": e.Tier, "class": rec.Class.String(),
				"trace_id": rec.ID,
			},
		}
		if e.Nanos > 0 {
			ev["ph"] = "X"
			ev["dur"] = float64(e.Nanos) / 1e3
		} else {
			ev["ph"] = "i"
			ev["s"] = "t"
		}
		evs = append(evs, ev)
	}
	return evs
}

// WriteTraceJSON renders lifecycle traces as a Chrome trace_event
// document. node labels the process in otherData.
func WriteTraceJSON(w io.Writer, node string, recs []TraceRecord) error {
	evs := make([]map[string]any, 0, len(recs)*4)
	for _, rec := range recs {
		evs = appendRecEvents(evs, 1, rec)
	}
	doc := map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"node": node, "format": "hfetch-lifecycle"},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// NodeTraces pairs one node's name with its exported lifecycle traces,
// for fleet trace export.
type NodeTraces struct {
	Node string
	Recs []TraceRecord
}

// WriteFleetTraceJSON renders traces from several nodes as one Chrome
// trace_event document with one process lane (pid) per node: pids are
// assigned in sorted node-name order and labeled with process_name
// metadata, so Perfetto shows a track group per node. A trace ID that
// appears under several pids (a propagated cross-node trace) shows the
// same lifecycle spanning lanes.
func WriteFleetTraceJSON(w io.Writer, lanes []NodeTraces) error {
	sorted := append([]NodeTraces(nil), lanes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })
	names := []string{}
	evs := []map[string]any{}
	for i, lane := range sorted {
		pid := i + 1
		names = append(names, lane.Node)
		evs = append(evs, map[string]any{
			"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
			"args": map[string]any{"name": lane.Node},
		})
		for _, rec := range lane.Recs {
			evs = appendRecEvents(evs, pid, rec)
		}
	}
	doc := map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"nodes": names, "format": "hfetch-lifecycle-fleet"},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// ValidateTraceJSON checks raw against the exported trace schema:
// a traceEvents array whose members carry name/ph/pid/tid, a numeric ts
// on phase X and i events, and a non-negative dur on X events. Like
// bench.Validate it is hand-rolled and returns every violation.
func ValidateTraceJSON(raw []byte) []error {
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return []error{fmt.Errorf("not valid JSON: %w", err)}
	}
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	evs, ok := doc["traceEvents"].([]any)
	if !ok {
		return append(errs, fmt.Errorf("traceEvents: missing or not an array"))
	}
	for i, e := range evs {
		m, ok := e.(map[string]any)
		if !ok {
			bad("traceEvents[%d]: not an object", i)
			continue
		}
		if s, ok := m["name"].(string); !ok || s == "" {
			bad("traceEvents[%d].name: missing or empty", i)
		}
		ph, _ := m["ph"].(string)
		if ph != "X" && ph != "i" && ph != "M" {
			bad("traceEvents[%d].ph: got %q, want X|i|M", i, ph)
		}
		for _, key := range []string{"pid", "tid"} {
			if _, ok := m[key].(float64); !ok {
				bad("traceEvents[%d].%s: missing or not a number", i, key)
			}
		}
		if ph == "X" || ph == "i" {
			if ts, ok := m["ts"].(float64); !ok || ts < 0 {
				bad("traceEvents[%d].ts: missing or negative", i)
			}
		}
		if ph == "X" {
			if d, ok := m["dur"].(float64); !ok || d < 0 {
				bad("traceEvents[%d].dur: missing or negative", i)
			}
		}
	}
	return errs
}

// DefaultAccessLogSize bounds the folded access recorder's ring.
const DefaultAccessLogSize = 1 << 14

// AccessSample is one recorded application access — the lifecycle
// layer's replacement for the legacy internal/trace CSV recorder.
type AccessSample struct {
	When    time.Time
	File    string
	Offset  int64
	Length  int64
	Tier    string // serving tier; empty = PFS (miss)
	Latency time.Duration
}

// Hit reports whether the access was served from the hierarchy.
func (s AccessSample) Hit() bool { return s.Tier != "" }

// AccessLog is a ring of access samples. Recording is mutex + slot
// write; callers on hot paths sample (the server records only accesses
// it already timed).
type AccessLog struct {
	mu   sync.Mutex
	ring ring[AccessSample]

	total, hits int64
}

// NewAccessLog keeps the last size samples.
func NewAccessLog(size int) *AccessLog {
	return &AccessLog{ring: newRing[AccessSample](size)}
}

// Record stores s. Nil-safe.
//
//hfetch:hotpath
func (l *AccessLog) Record(s AccessSample) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ring.push(s)
	l.total++
	if s.Hit() {
		l.hits++
	}
	l.mu.Unlock()
}

// Len returns the number of samples held.
func (l *AccessLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.len()
}

// Samples returns the held samples, oldest first.
func (l *AccessLog) Samples() []AccessSample {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.held(false)
}

// AccessSummary aggregates an access log for human output.
type AccessSummary struct {
	Total   int64
	Hits    int64
	MeanLat time.Duration
	P99Lat  time.Duration
}

// HitRatio returns hits/total (0 when empty).
func (s AccessSummary) HitRatio() float64 { return ratio(s.Hits, s.Total-s.Hits) }

func (s AccessSummary) String() string {
	return fmt.Sprintf("accesses %d, hit ratio %.3f, mean %v, p99 %v",
		s.Total, s.HitRatio(), s.MeanLat.Round(time.Microsecond), s.P99Lat.Round(time.Microsecond))
}

// Summary computes totals over everything recorded (not just the held
// window) plus latency quantiles over the held samples.
func (l *AccessLog) Summary() AccessSummary {
	var out AccessSummary
	if l == nil {
		return out
	}
	samples := l.Samples()
	l.mu.Lock()
	out.Total, out.Hits = l.total, l.hits
	l.mu.Unlock()
	if len(samples) == 0 {
		return out
	}
	lats := make([]time.Duration, len(samples))
	var sum time.Duration
	for i, s := range samples {
		lats[i] = s.Latency
		sum += s.Latency
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	out.MeanLat = sum / time.Duration(len(lats))
	out.P99Lat = lats[(len(lats)*99)/100]
	return out
}

// WriteAccessCSV writes samples in the legacy internal/trace CSV layout:
// when_unix_ns,file,offset,length,tier,hit,latency_us.
func WriteAccessCSV(w io.Writer, samples []AccessSample) error {
	if _, err := fmt.Fprintln(w, "when_unix_ns,file,offset,length,tier,hit,latency_us"); err != nil {
		return err
	}
	for _, s := range samples {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%s,%t,%.2f\n",
			s.When.UnixNano(), s.File, s.Offset, s.Length, s.Tier, s.Hit(),
			float64(s.Latency)/float64(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}
