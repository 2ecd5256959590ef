package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTelemetryCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same instrument.
	if r.Counter("c_total", "a counter") != c {
		t.Fatal("counter lookup not idempotent")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	r.GaugeFunc("gf", "a computed gauge", func() int64 { return 42 })
	snap := r.Snapshot()
	found := false
	for _, m := range snap.Metrics {
		if m.Name == "gf" {
			found = true
			if m.Value != 42 {
				t.Fatalf("gauge func = %d, want 42", m.Value)
			}
		}
	}
	if !found {
		t.Fatal("gauge func missing from snapshot")
	}
}

func TestTelemetryNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("x2", "").Set(1)
	r.GaugeFunc("x3", "", func() int64 { return 1 })
	r.Histogram("x4", "").Observe(1)
	r.HistVec("x5", "", "tier").With("ram").Observe(1)
	r.CounterVec("x6", "", "tier").With("ram").Add(1)
	r.Span(StageAudit, "f", 0, "", time.Now(), time.Millisecond)
	var buf bytes.Buffer
	r.WriteText(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q", buf.String())
	}
	if n := len(r.Snapshot().Metrics); n != 0 {
		t.Fatalf("nil registry snapshot has %d metrics", n)
	}
}

// TestNilReceivers holds the nil-safety contract of the optional
// telemetry types: a disabled registry hands out nil everywhere, so
// every exported method of a pointer to each type must tolerate a nil
// receiver. Each is called twice through reflect, with zero arguments
// and with non-zero ones, and must not panic.
func TestNilReceivers(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[*Registry](), reflect.TypeFor[*Lifecycle](), reflect.TypeFor[*Counter](),
		reflect.TypeFor[*Gauge](), reflect.TypeFor[*Histogram](), reflect.TypeFor[*AccessLog](),
		reflect.TypeFor[*CounterVec](), reflect.TypeFor[*HistVec](), reflect.TypeFor[*Watchdog](),
	} {
		recv := reflect.Zero(typ)
		if typ.NumMethod() == 0 {
			t.Errorf("%v has no exported methods to call", typ)
		}
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			for _, args := range []string{"zero", "non-zero"} {
				in := []reflect.Value{recv}
				for j := 1; j < m.Type.NumIn(); j++ {
					in = append(in, argOf(m.Type.In(j), args == "non-zero"))
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("(%v).%s on a nil receiver with %s arguments panics: %v", typ, m.Name, args, p)
						}
					}()
					if m.Type.IsVariadic() {
						m.Func.CallSlice(in)
					} else {
						m.Func.Call(in)
					}
				}()
			}
		}
	}
}

// argOf returns the zero value of t, or a non-zero one: 1, "x", true,
// a no-op func, io.Discard, one-element slices and filled structs.
func argOf(t reflect.Type, nonZero bool) reflect.Value {
	v := reflect.New(t).Elem()
	if !nonZero {
		return v
	}
	switch k := t.Kind(); {
	case v.CanInt():
		v.SetInt(1)
	case v.CanUint():
		v.SetUint(1)
	case k == reflect.String:
		v.SetString("x")
	case k == reflect.Bool:
		v.SetBool(true)
	case k == reflect.Func:
		v.Set(reflect.MakeFunc(t, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, t.NumOut())
			for i := range out {
				out[i] = reflect.Zero(t.Out(i))
			}
			return out
		}))
	case k == reflect.Interface:
		if d := reflect.ValueOf(io.Discard); d.Type().Implements(t) {
			v.Set(d)
		}
	case k == reflect.Slice:
		v = reflect.Append(v, argOf(t.Elem(), true))
	case k == reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				v.Field(i).Set(argOf(t.Field(i).Type, true))
			}
		}
	}
	return v
}

// TestTelemetryConcurrentWriters hammers one histogram and the registry
// lookup path from many goroutines; run with -race.
func TestTelemetryConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const writers = 16
	const perWriter = 2000
	var wg sync.WaitGroup
	hv := r.HistVec("lat_nanos", "latency", "tier")
	cv := r.CounterVec("hits_total", "hits", "tier")
	tiersList := []string{"ram", "nvme", "bb"}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tier := tiersList[i%len(tiersList)]
				hv.With(tier).Observe(int64(i + 1))
				cv.With(tier).Inc()
				// Concurrent same-name lookups must converge on one series.
				r.Counter("shared_total", "shared").Inc()
				r.Span(StageClientRead, "f", int64(i), tier, time.Now(), time.Duration(i))
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("shared_total", "shared").Value(); got != writers*perWriter {
		t.Fatalf("shared counter = %d, want %d", got, writers*perWriter)
	}
	var histTotal, ctrTotal int64
	for _, tier := range tiersList {
		histTotal += hv.With(tier).Count()
		ctrTotal += cv.With(tier).Value()
	}
	if histTotal != writers*perWriter {
		t.Fatalf("histogram observations = %d, want %d", histTotal, writers*perWriter)
	}
	if ctrTotal != writers*perWriter {
		t.Fatalf("counter total = %d, want %d", ctrTotal, writers*perWriter)
	}
	if got := r.StageHist(StageClientRead).Count(); got != writers*perWriter {
		t.Fatalf("stage histogram = %d spans, want %d", got, writers*perWriter)
	}
}

// TestTelemetryHistogramQuantiles checks quantile estimates against a
// known distribution: log buckets guarantee estimates within a factor
// of 2 of the true value.
func TestTelemetryHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	const n = 100000
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, n)
	for i := range vals {
		// Log-uniform over [1, 2^30): a latency-shaped distribution.
		vals[i] = int64(1) << uint(rng.Intn(30))
		vals[i] += rng.Int63n(vals[i])
		h.Observe(vals[i])
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	var sum int64
	maxv := int64(0)
	for _, v := range vals {
		sum += v
		if v > maxv {
			maxv = v
		}
	}
	if s.Sum != sum {
		t.Fatalf("sum = %d, want %d", s.Sum, sum)
	}
	if s.Max != maxv {
		t.Fatalf("max = %d, want %d", s.Max, maxv)
	}

	sorted := append([]int64(nil), vals...)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		truth := quickQuantile(sorted, q)
		est := s.Quantile(q)
		if est < truth/2 || est > truth*2 {
			t.Errorf("q%.2f: estimate %d outside [%d, %d] (truth %d)",
				q, est, truth/2, truth*2, truth)
		}
	}
	if got := s.Quantile(1); got != maxv {
		t.Errorf("q1 = %d, want max %d", got, maxv)
	}
	// Degenerate distributions.
	var one Histogram
	one.Observe(777)
	if got := one.Snapshot().Quantile(0.5); got < 512 || got > 1023 {
		t.Errorf("single-value p50 = %d, want within its bucket [512,1023]", got)
	}
	var empty Histogram
	if got := empty.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
}

func quickQuantile(vals []int64, q float64) int64 {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

func TestTelemetrySnapshotMerge(t *testing.T) {
	a := NewRegistry()
	b := NewRegistry()
	a.Counter("hits_total", "hits", "tier", "ram").Add(3)
	b.Counter("hits_total", "hits", "tier", "ram").Add(4)
	b.Counter("hits_total", "hits", "tier", "nvme").Add(9)
	a.Histogram("lat_nanos", "lat").Observe(100)
	b.Histogram("lat_nanos", "lat").Observe(200)

	snap := a.Snapshot()
	snap.Merge(b.Snapshot())
	got := map[string]int64{}
	for _, m := range snap.Metrics {
		if m.Kind == KindCounter {
			got[m.Name+m.Labels] = m.Value
		}
		if m.Name == "lat_nanos" {
			if m.Hist.Count != 2 || m.Hist.Sum != 300 {
				t.Fatalf("merged hist = count %d sum %d, want 2/300", m.Hist.Count, m.Hist.Sum)
			}
		}
	}
	if got[`hits_total{tier="ram"}`] != 7 {
		t.Fatalf("merged ram hits = %d, want 7", got[`hits_total{tier="ram"}`])
	}
	if got[`hits_total{tier="nvme"}`] != 9 {
		t.Fatalf("merged nvme hits = %d, want 9", got[`hits_total{tier="nvme"}`])
	}
}

// TestTelemetryExpositionGolden locks the Prometheus text format.
func TestTelemetryExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("hfetch_hits_total", "segment hits", "tier", "ram").Add(12)
	r.Counter("hfetch_hits_total", "segment hits", "tier", "nvme").Add(3)
	r.Gauge("hfetch_queue_depth", "queued events").Set(5)
	h := r.Histogram("hfetch_read_nanos", "read latency", "tier", "ram")
	h.Observe(0)
	h.Observe(1)
	h.Observe(3)
	h.Observe(900)
	h.Observe(1000)

	var buf bytes.Buffer
	r.WriteText(&buf)
	want := strings.Join([]string{
		`# HELP hfetch_hits_total segment hits`,
		`# TYPE hfetch_hits_total counter`,
		`hfetch_hits_total{tier="ram"} 12`,
		`hfetch_hits_total{tier="nvme"} 3`,
		`# HELP hfetch_queue_depth queued events`,
		`# TYPE hfetch_queue_depth gauge`,
		`hfetch_queue_depth 5`,
		`# HELP hfetch_read_nanos read latency`,
		`# TYPE hfetch_read_nanos histogram`,
		`hfetch_read_nanos_bucket{tier="ram",le="0"} 1`,
		`hfetch_read_nanos_bucket{tier="ram",le="1"} 2`,
		`hfetch_read_nanos_bucket{tier="ram",le="3"} 3`,
		`hfetch_read_nanos_bucket{tier="ram",le="7"} 3`,
		`hfetch_read_nanos_bucket{tier="ram",le="15"} 3`,
		`hfetch_read_nanos_bucket{tier="ram",le="31"} 3`,
		`hfetch_read_nanos_bucket{tier="ram",le="63"} 3`,
		`hfetch_read_nanos_bucket{tier="ram",le="127"} 3`,
		`hfetch_read_nanos_bucket{tier="ram",le="255"} 3`,
		`hfetch_read_nanos_bucket{tier="ram",le="511"} 3`,
		`hfetch_read_nanos_bucket{tier="ram",le="1023"} 5`,
		`hfetch_read_nanos_bucket{tier="ram",le="+Inf"} 5`,
		`hfetch_read_nanos_sum{tier="ram"} 1904`,
		`hfetch_read_nanos_count{tier="ram"} 5`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTelemetrySpanFeedsHistAndTrace: every span lands in its stage
// histogram, and a span of a segment with an in-flight lifecycle trace
// joins that trace, which is where hfetchctl spans reads it.
func TestTelemetrySpanFeedsHistAndTrace(t *testing.T) {
	r := NewRegistry()
	r.EnableLifecycle(1)
	lc := r.Lifecycle()
	lc.SetGrain(1)
	base := time.Now()
	lc.OnEvent("f.dat", 3, base)
	for i := 0; i < 10; i++ {
		r.Span(StageFetch, "f.dat", int64(i), "nvme", base, time.Duration(i)*time.Millisecond)
	}
	recs := lc.Export()
	if len(recs) != 1 || recs[0].Seg != 3 {
		t.Fatalf("traces = %+v, want segment 3's alone", recs)
	}
	evs := recs[0].Events
	if len(evs) != 2 || evs[0].Stage != StageEvent {
		t.Fatalf("trace events = %+v, want the root event and one span", evs)
	}
	if e := evs[1]; e.Stage != StageFetch || e.Tier != "nvme" || e.Nanos != int64(3*time.Millisecond) {
		t.Fatalf("joined span = %+v", e)
	}
	if got := r.StageHist(StageFetch).Count(); got != 10 {
		t.Fatalf("aggregate stage count = %d, want 10 (every span, traced or not)", got)
	}
}

func TestTelemetryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a histogram did not panic")
		}
	}()
	r.Histogram("dual", "")
}

func TestTelemetryHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11}, {1 << 47, NumBuckets - 1}, {1 << 62, NumBuckets - 1}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	for b := 1; b < NumBuckets-1; b++ {
		if bucketOf(bucketLower(b)) != b || bucketOf(bucketUpper(b)) != b {
			t.Errorf("bucket %d bounds [%d,%d] do not map back", b, bucketLower(b), bucketUpper(b))
		}
	}
}

func BenchmarkTelemetryHistogramObserve(b *testing.B) {
	h := &Histogram{}
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v = (v * 7) % (1 << 30)
		}
	})
}

func BenchmarkTelemetryNilObserve(b *testing.B) {
	var h *Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func ExampleRegistry_WriteText() {
	r := NewRegistry()
	r.Counter("hfetch_evictions_total", "evictions").Add(2)
	var buf bytes.Buffer
	r.WriteText(&buf)
	fmt.Print(buf.String())
	// Output:
	// # HELP hfetch_evictions_total evictions
	// # TYPE hfetch_evictions_total counter
	// hfetch_evictions_total 2
}
