package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// The op list of a generator is a function of the seed alone.
func TestGeneratorsAreDeterministic(t *testing.T) {
	d := &dataset{names: make([]string, stormFiles), segs: stormSegs}
	for i := range d.names {
		d.names[i] = "f" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	at := time.Unix(0, 0)
	list := func(seed int64, g int) (reads []readOp, files []string) {
		rng := genRNG(seed, g)
		for i := 0; i < 1000; i++ {
			reads = append(reads, nextRead(rng, warmFiles, warmSegs, rangeSegs))
			files = append(files, nextEvent(rng, d, at).File)
		}
		return reads, files
	}
	r1, f1 := list(7, 0)
	r2, f2 := list(7, 0)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(f1, f2) {
		t.Fatal("same seed and generator gave different op lists")
	}
	if r3, _ := list(8, 0); reflect.DeepEqual(r1, r3) {
		t.Fatal("seeds 7 and 8 gave the same op list")
	}
	if r4, _ := list(7, 1); reflect.DeepEqual(r1, r4) {
		t.Fatal("generators 0 and 1 of one seed gave the same op list")
	}
	// No (seed, generator) pair shares a source with another.
	if a, _ := list(7, 1); reflect.DeepEqual(a, func() []readOp { r, _ := list(8, 0); return r }()) {
		t.Fatal("seed 7 generator 1 and seed 8 generator 0 share a stream")
	}
	for _, op := range r1 {
		if op.file < 0 || op.file >= warmFiles || op.seg < 0 || op.seg+rangeSegs > warmSegs {
			t.Fatalf("read %+v leaves the data set", op)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %d", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

func TestSliceOf(t *testing.T) {
	for _, c := range []struct {
		end  int64
		want int
	}{{0, 0}, {999, 0}, {1000, 1}, {4999, 4}, {5000, 4}, {7000, 4}, {-5, 0}} {
		if got := sliceOf(c.end, 5000, 5); got != c.want {
			t.Errorf("sliceOf(%d, 5000, 5) = %d, want %d", c.end, got, c.want)
		}
	}
	if got := sliceOf(3, 0, 5); got != 0 {
		t.Errorf("sliceOf of an empty window = %d", got)
	}
}

// Five one-second slices holding 10, 10, 2, 10 and 10 ops of 1 ms, the
// third slice's ops taking 9 ms and twice the CPU: the whole-window mean
// rate is 8.4/s, the reported figures are the typical slice's.
func TestEndToEndIsTheMedianSlice(t *testing.T) {
	open := time.Unix(1000, 0)
	r := &recorder{open: open}
	var reads []usage
	var cpu time.Duration
	for slice, n := range []int{10, 10, 2, 10, 10} {
		lat, per := time.Millisecond, 100*time.Microsecond
		if slice == 2 {
			lat, per = 9*time.Millisecond, 200*time.Microsecond
		}
		reads = append(reads, usage{at: open.Add(time.Duration(slice) * time.Second), cpu: cpu, rssMB: float64(100 + slice)})
		for i := 0; i < n; i++ {
			end := open.Add(time.Duration(slice)*time.Second + time.Duration(i+1)*10*time.Millisecond)
			r.add(end.Add(-lat), end, true)
			cpu += per
		}
	}
	last := open.Add(5 * time.Second)
	r.add(last.Add(-time.Millisecond), last, true)                                      // the window's span is exactly 5 s
	reads = append(reads, usage{at: last, cpu: cpu + 100*time.Microsecond, rssMB: 111}) // mean 103.5, median 102.5
	w := &window{open: open, recs: []*recorder{r}, makespan: 5 * time.Second, hits: 3, misses: 1}
	m := windowMetrics(w, reads, 430)
	want := map[string]float64{"ops_per_s": 10, "op_p50_us": 1000, "op_p99_us": 1000, "cpu_us_per_op": 100,
		"rss_mb": 103.5, "allocs_per_op": 10, "hit_ratio": 0.75, "makespan_s": 5, "read_blocked_s": 0.059}
	for k, v := range want {
		if got := m[k]; got < v*0.999 || got > v*1.001 {
			t.Errorf("%s = %g, want %g", k, got, v)
		}
	}
	if want := len(endToEnd) - 1 + len(timings); len(m) != want { // all but setup_s
		t.Errorf("%d window metrics computed, %d declared", len(m), want)
	}
}

func TestRecorderChunks(t *testing.T) {
	open := time.Now()
	r := &recorder{open: open}
	for i := 0; i < chunkSamples+3; i++ {
		if id := r.add(open, open.Add(time.Duration(i)), i%2 == 0); id != i {
			t.Fatalf("op %d got id %d", i, id)
		}
	}
	if r.n != chunkSamples+3 || len(r.chunks) != 2 || len(r.chunks[1]) != 3 {
		t.Fatalf("n=%d chunks=%d", r.n, len(r.chunks))
	}
	if want := int64((chunkSamples + 3) / 2); r.failed != want {
		t.Fatalf("failed=%d, want %d", r.failed, want)
	}
}

// A barrier that never returns is reported at its deadline, not waited on.
func TestBoundedBarrierExpires(t *testing.T) {
	dir := t.TempDir()
	b := &barriers{out: dir}
	block := make(chan struct{})
	defer close(block)
	start := time.Now()
	if b.bounded("Node.Flush", 50*time.Millisecond, func() { <-block }) {
		t.Fatal("a blocked barrier was reported as returned")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("waited %v for a 50 ms bound", waited)
	}
	if b.timeouts.Load() != 1 {
		t.Fatalf("timeouts = %d", b.timeouts.Load())
	}
	dumps, _ := filepath.Glob(filepath.Join(dir, "goroutines_Node.Flush_*.txt"))
	if len(dumps) != 1 {
		t.Fatalf("goroutine dumps written: %v", dumps)
	}
	if raw, _ := os.ReadFile(dumps[0]); len(raw) == 0 {
		t.Fatal("empty goroutine dump")
	}
	if !b.bounded("quick", time.Second, func() {}) || b.timeouts.Load() != 1 {
		t.Fatal("a returning barrier was counted as expired")
	}
}

// Self time is a span's time less its children's, and assemble gives the
// sub-spans of an op that op's span as parent.
func TestSpansAndSelfTime(t *testing.T) {
	origin := time.Unix(100, 0)
	tr := &tracer{origin: origin}
	tr.add("setup", origin, origin.Add(10*time.Millisecond), -1, -1)
	open := origin.Add(20 * time.Millisecond)
	r := &recorder{open: open, traced: true}
	for i := 0; i < 2; i++ {
		start := open.Add(time.Duration(i) * time.Millisecond)
		first := start.Add(300 * time.Microsecond)
		end := start.Add(500 * time.Microsecond)
		r.child("GET first byte", start, first)
		r.child("GET body", first, end)
		r.add(start, end, true)
	}
	spans := tr.assemble("GET", open, []*recorder{r})
	if len(spans) != 7 {
		t.Fatalf("%d spans, want 7", len(spans))
	}
	for _, s := range spans[3:] {
		if p := spans[s.parent]; p.name != "GET" || p.op != s.op || s.start < p.start || s.end > p.end {
			t.Fatalf("child %+v has parent %+v", s, p)
		}
	}
	rows := map[string]selfRow{}
	for _, row := range selfTimes(spans) {
		rows[row.Name] = row
	}
	if g := rows["GET"]; g.Count != 2 || g.TotalMS != 1 || g.SelfMS != 0 || g.MedianTotalNS != 500_000 {
		t.Errorf("GET row %+v", g)
	}
	if f := rows["GET first byte"]; f.Count != 2 || f.SelfMS != 0.6 {
		t.Errorf("first byte row %+v", f)
	}
	if s := rows["setup"]; s.SelfMS != 10 {
		t.Errorf("setup row %+v", s)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, "gateway_range", spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Names []string  `json:"names"`
		Spans [][]int64 `json:"spans"`
	}
	raw, _ := os.ReadFile(path)
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.Spans) != 7 || len(doc.Names) != 4 || doc.Spans[3][3] != 1 {
		t.Fatalf("trace file holds %d spans, names %v, first child %v", len(doc.Spans), doc.Names, doc.Spans[3])
	}
}

// BENCHMARK.json and the program name the same workloads and metrics, with
// the same units and directions, and a run's last line round-trips with
// exactly those names.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(allWorkloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != allWorkloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, allWorkloads[i].name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, g := range got {
			better := "lower"
			if want[i].higher {
				better = "higher"
			}
			if g.Name != want[i].name || g.Unit != want[i].unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, want[i])
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)

	for _, traced := range []bool{false, true} {
		r := &result{Traced: traced, Correct: true, Attempted: 10, Window: map[string]float64{}, PerLayer: map[string]float64{}}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for i, d := range endToEnd {
			r.Window[d.name] = float64(i) + 0.5
		}
		for i, d := range perLayer {
			r.PerLayer[d.name] = float64(i) + 0.25
		}
		line, err := contractLine(r)
		if err != nil {
			t.Fatal(err)
		}
		var back struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]value
		}
		if err := json.Unmarshal([]byte(line), &back); err != nil {
			t.Fatal(err)
		}
		if !back.Correct || back.Attempted != 10 || back.Failed != 0 || len(back.Metrics) != len(defs) {
			t.Fatalf("traced=%v: line %s", traced, line)
		}
		for _, d := range defs {
			if v, ok := back.Metrics[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("traced=%v: metric %s came back as %+v (present %v)", traced, d.name, v, ok)
			}
		}
		delete(r.Window, "setup_s")
		if _, err := contractLine(r); err == nil {
			t.Errorf("traced=%v: a run without setup_s produced a result line", traced)
		}
	}
}
