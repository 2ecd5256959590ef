// Package telemetry is HFetch's production observability subsystem: a
// low-overhead metric registry (atomic counters, gauges, log2-bucketed
// latency histograms), lightweight pipeline spans that time each stage
// of a segment's life, and a Prometheus-text-format exposition.
//
// The design constraint is the prefetch hot path: recording a metric is
// one or two atomic adds with no locks, and the whole subsystem is
// nil-safe — a nil *Registry hands out nil metric handles whose methods
// are single-branch no-ops, so harness and benchmark runs can disable
// telemetry entirely and pay ~zero.
//
// Handles are cheap to look up but not free (a read-lock and a map
// probe), so hot paths obtain them once and keep them; *Vec types cache
// per-label-value handles behind a sync.Map for paths whose label (the
// tier name) is only known at record time.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind enumerates metric types.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (nil-safe).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one (nil-safe).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v (nil-safe).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by n (nil-safe).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// series is one (labels -> instrument) instance of a family.
type series struct {
	labels string // rendered {k="v",...}, "" when unlabeled
	c      *Counter
	g      *Gauge
	fn     func() int64 // value read at snapshot time (CounterFunc, GaugeFunc)
	h      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name string
	help string
	kind Kind

	mu     sync.Mutex
	series map[string]*series
	order  []*series
}

// Registry holds a node's metrics. The zero value is not usable; create
// with NewRegistry. A nil *Registry is the disabled state: every lookup
// returns a nil handle and every exposition is empty.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []*family

	lifecycle  atomic.Pointer[Lifecycle]
	stageHists sync.Map // stage string -> *Histogram

	sampleCtr   atomic.Uint64
	sampleEvery uint64
}

// DefaultTimeSampleEvery is the default latency-timing sample rate: one
// in this many hot-path operations reads the clock and lands in the
// latency histograms. Counters are never sampled.
const DefaultTimeSampleEvery = 8

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), sampleEvery: DefaultTimeSampleEvery}
}

// SetTimeSampling makes TimeSample admit one in every N operations
// (every <= 1 admits all). Latency histograms fed through TimeSample
// stay unbiased — only their _count becomes the sampled count; pair
// them with an unsampled counter for exact totals. Call before traffic.
func (r *Registry) SetTimeSampling(every int) {
	if r == nil {
		return
	}
	if every < 1 {
		every = 1
	}
	r.sampleEvery = uint64(every)
}

// TimeSample reports whether the caller should take timestamps for this
// operation. Reading the clock twice per operation dominates
// instrumentation cost on fast paths, so timed observations are sampled;
// everything else (counters, gauges) records every operation. Nil-safe:
// a nil registry never samples.
func (r *Registry) TimeSample() bool {
	if r == nil {
		return false
	}
	if r.sampleEvery <= 1 {
		return true
	}
	return r.sampleCtr.Add(1)%r.sampleEvery == 0
}

// RenderLabels renders label pairs ("tier", "ram", ...) into the
// canonical exposition form {tier="ram"}. Pairs are sorted by key so the
// same label set always renders identically.
func RenderLabels(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		pairs = append(pairs, "")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns (creating as needed) the series of name+labels,
// checking the kind matches any prior registration. A non-nil fn
// becomes the series' value, set under the family lock that Snapshot
// reads it under.
func (r *Registry) lookup(name, help string, kind Kind, labels string, fn func() int64) *series {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
			r.families[name] = f
			r.order = append(r.order, f)
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s re-registered as %v (was %v)", name, kind, f.kind))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[labels]
	if s == nil {
		s = &series{labels: labels}
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = &Histogram{}
		}
		f.series[labels] = s
		f.order = append(f.order, s)
	}
	if fn != nil {
		s.fn = fn
	}
	return s
}

// Counter returns the counter of name with the given label pairs,
// creating it on first use. Nil-safe: a nil registry returns nil.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, RenderLabels(labelPairs...), nil).c
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot time. It is how components export counters they already keep
// as atomics, at zero hot-path cost. Re-registering replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labelPairs ...string) {
	if r == nil {
		return
	}
	r.lookup(name, help, KindCounter, RenderLabels(labelPairs...), fn)
}

// Gauge returns the gauge of name with the given label pairs.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindGauge, RenderLabels(labelPairs...), nil).g
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time (queue depths, map sizes). Re-registering replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labelPairs ...string) {
	if r == nil {
		return
	}
	r.lookup(name, help, KindGauge, RenderLabels(labelPairs...), fn)
}

// Histogram returns the histogram of name with the given label pairs.
func (r *Registry) Histogram(name, help string, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindHistogram, RenderLabels(labelPairs...), nil).h
}

// CounterVec hands out per-label-value counters of one family, caching
// handles so the hot path is a sync.Map read.
type CounterVec struct {
	r          *Registry
	name, help string
	label      string
	m          sync.Map // value string -> *Counter
}

// CounterVec returns a cached-handle view over the family name keyed by
// one label. Nil-safe.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r: r, name: name, help: help, label: label}
}

// With returns the counter for the given label value (nil-safe).
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	if c, ok := v.m.Load(value); ok {
		return c.(*Counter)
	}
	c := v.r.Counter(v.name, v.help, v.label, value)
	v.m.Store(value, c)
	return c
}

// HistVec is CounterVec for histograms.
type HistVec struct {
	r          *Registry
	name, help string
	label      string
	m          sync.Map // value string -> *Histogram
}

// HistVec returns a cached-handle histogram family keyed by one label.
func (r *Registry) HistVec(name, help, label string) *HistVec {
	if r == nil {
		return nil
	}
	return &HistVec{r: r, name: name, help: help, label: label}
}

// With returns the histogram for the given label value (nil-safe).
func (v *HistVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	if h, ok := v.m.Load(value); ok {
		return h.(*Histogram)
	}
	h := v.r.Histogram(v.name, v.help, v.label, value)
	v.m.Store(value, h)
	return h
}
