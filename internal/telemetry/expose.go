package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// MetricSnapshot is one series' point-in-time state, gob-encodable so
// snapshots travel over the agent protocol.
type MetricSnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Labels string // rendered {k="v",...}, "" when unlabeled
	Value  int64  // counters and gauges
	Hist   *HistSnapshot
}

// Snapshot is a registry's full state at one instant, in registration
// order. Snapshots from several nodes merge into a cluster view.
type Snapshot struct {
	Metrics []MetricSnapshot
}

// Snapshot captures every series, evaluating gauge functions. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var out Snapshot
	if r == nil {
		return out
	}
	r.mu.RLock()
	fams := make([]*family, len(r.order))
	copy(fams, r.order)
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.Lock()
		series := make([]series, len(f.order))
		for i, s := range f.order {
			series[i] = *s
		}
		f.mu.Unlock()
		for _, s := range series {
			m := MetricSnapshot{Name: f.name, Help: f.help, Kind: f.kind, Labels: s.labels}
			switch f.kind {
			case KindCounter, KindGauge:
				switch {
				case s.fn != nil:
					m.Value = s.fn()
				case s.c != nil:
					m.Value = s.c.Value()
				default:
					m.Value = s.g.Value()
				}
			case KindHistogram:
				h := s.h.Snapshot()
				m.Hist = &h
			}
			out.Metrics = append(out.Metrics, m)
		}
	}
	return out
}

// Merge folds o into s: series with the same name+labels are summed
// (histograms bucket-wise), new series are appended. Counters and
// gauges sum, which is the natural cluster aggregation for totals and
// depths.
func (s *Snapshot) Merge(o Snapshot) {
	idx := make(map[string]int, len(s.Metrics))
	for i, m := range s.Metrics {
		idx[m.Name+m.Labels] = i
	}
	for _, m := range o.Metrics {
		i, ok := idx[m.Name+m.Labels]
		if !ok {
			if m.Hist != nil {
				h := *m.Hist
				m.Hist = &h
			}
			idx[m.Name+m.Labels] = len(s.Metrics)
			s.Metrics = append(s.Metrics, m)
			continue
		}
		dst := &s.Metrics[i]
		dst.Value += m.Value
		if m.Hist != nil {
			if dst.Hist == nil {
				h := *m.Hist
				dst.Hist = &h
			} else {
				dst.Hist.Merge(*m.Hist)
			}
		}
	}
}

// MergeSnapshots folds any number of per-node snapshots into one fleet
// view: counters and gauges sum, histograms merge bucket-wise, and
// series seen on only some nodes are carried through. The inputs are
// not mutated.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		out.Merge(s)
	}
	return out
}

// WriteText renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), families in sorted name order so scrapes and
// `hfetchctl metrics raw` output diff cleanly across runs. Histograms
// emit cumulative le buckets up to the highest occupied bucket, then
// +Inf, sum and count.
func (s Snapshot) WriteText(w io.Writer) {
	// Group same-name series (a merged snapshot may interleave them),
	// then order families by name for stable output.
	byName := make(map[string][]int, len(s.Metrics))
	var names []string
	for i, m := range s.Metrics {
		if _, ok := byName[m.Name]; !ok {
			names = append(names, m.Name)
		}
		byName[m.Name] = append(byName[m.Name], i)
	}
	sort.Strings(names)
	for _, name := range names {
		first := s.Metrics[byName[name][0]]
		if first.Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, first.Help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, first.Kind)
		for _, i := range byName[name] {
			m := s.Metrics[i]
			switch m.Kind {
			case KindCounter, KindGauge:
				fmt.Fprintf(w, "%s%s %d\n", m.Name, m.Labels, m.Value)
			case KindHistogram:
				writeHistText(w, m)
			}
		}
	}
}

func writeHistText(w io.Writer, m MetricSnapshot) {
	h := m.Hist
	if h == nil {
		return
	}
	top := -1
	for b := NumBuckets - 1; b >= 0; b-- {
		if h.Buckets[b] > 0 {
			top = b
			break
		}
	}
	var cum int64
	for b := 0; b <= top; b++ {
		cum += h.Buckets[b]
		fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, withLE(m.Labels, strconv.FormatInt(bucketUpper(b), 10)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, withLE(m.Labels, "+Inf"), h.Count)
	fmt.Fprintf(w, "%s_sum%s %d\n", m.Name, m.Labels, h.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", m.Name, m.Labels, h.Count)
}

// withLE splices the le label into an already-rendered label set.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// WriteText renders the registry's current state (nil-safe: a nil
// registry writes nothing).
func (r *Registry) WriteText(w io.Writer) {
	r.Snapshot().WriteText(w)
}

// Handler serves the registry as a Prometheus /metrics endpoint. A nil
// r is only captured into the handler, whose WriteText is nil-safe.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
