package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

const testGrain = 1 << 10

func newTestLifecycle(every int) *Lifecycle {
	lc := NewLifecycle(64, every, 0)
	lc.SetGrain(testGrain)
	return lc
}

// stages extracts the stage names of a trace record in order.
func stages(rec TraceRecord) []string {
	out := make([]string, len(rec.Events))
	for i, e := range rec.Events {
		out[i] = e.Stage
	}
	return out
}

func wantCounts(t *testing.T, lc *Lifecycle, timely, late, wasted, redundant int64) {
	t.Helper()
	gt, gl, gw, gr := lc.EffCounts()
	if gt != timely || gl != late || gw != wasted || gr != redundant {
		t.Fatalf("counts t/l/w/r = %d/%d/%d/%d, want %d/%d/%d/%d",
			gt, gl, gw, gr, timely, late, wasted, redundant)
	}
}

func TestLifecycleTimelyClassification(t *testing.T) {
	lc := newTestLifecycle(1)
	now := time.Now()
	id := lc.OnEvent("/f", 5*testGrain, now)
	if id == 0 {
		t.Fatal("sampled event returned trace ID 0")
	}
	if again := lc.OnEvent("/f", 5*testGrain, now); again != id {
		t.Fatalf("repeated event on a hot segment: got ID %d, want %d", again, id)
	}
	got := lc.OnFetchQueued("/f", 5, id, "ram", now)
	if got != id {
		t.Fatalf("OnFetchQueued returned %d, want the event-rooted ID %d", got, id)
	}
	lc.OnFetchLanded("/f", 5, id, "ram")
	lc.OnReadHit("/f", 5, "ram", false)

	wantCounts(t, lc, 1, 0, 0, 0)
	if lc.LeadHist().Count() != 1 {
		t.Fatalf("lead observations = %d, want 1", lc.LeadHist().Count())
	}
	if lc.Active() != 0 {
		t.Fatalf("active = %d after classification, want 0", lc.Active())
	}
	recs := lc.Completed()
	if len(recs) != 1 {
		t.Fatalf("completed = %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec.ID != id || !rec.Done || rec.Class != ClassTimely {
		t.Fatalf("record = %+v", rec)
	}
	want := []string{StageEvent, StageDecide, StageLand, StageRead}
	if got := stages(rec); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("stages = %v, want %v", got, want)
	}
}

func TestLifecycleLateReadRescue(t *testing.T) {
	lc := newTestLifecycle(1)
	now := time.Now()
	id := lc.OnEvent("/f", 0, now)
	lc.OnFetchQueued("/f", 0, id, "ram", now)
	// The read arrives while the fetch is in flight and stalls on it.
	lc.OnReadHit("/f", 0, "ram", true)

	wantCounts(t, lc, 0, 1, 0, 0)
	if lc.LeadHist().Count() != 0 {
		t.Fatal("late rescue must not contribute a lead-time sample")
	}
	recs := lc.Completed()
	if len(recs) != 1 || recs[0].Class != ClassLate {
		t.Fatalf("completed = %+v", recs)
	}
}

func TestLifecycleEvictionBeforeFirstRead(t *testing.T) {
	lc := newTestLifecycle(1)
	now := time.Now()
	lc.OnFetchQueued("/f", 3, 0, "ram", now)
	lc.OnFetchLanded("/f", 3, 0, "ram")
	lc.OnEvicted("/f", 3)

	wantCounts(t, lc, 0, 0, 1, 0)
	recs := lc.Completed()
	if len(recs) != 1 || recs[0].Class != ClassWasted {
		t.Fatalf("completed = %+v", recs)
	}
	if got := stages(recs[0]); got[len(got)-1] != StageEvicted {
		t.Fatalf("terminal stage = %v, want %s", got, StageEvicted)
	}
	// A plain event-rooted trace (no fetch) evicts unclassified.
	lc.OnEvent("/g", 0, now)
	lc.OnEvicted("/g", 0)
	wantCounts(t, lc, 0, 0, 1, 0)
}

func TestLifecycleSupersededQueuedFetch(t *testing.T) {
	lc := newTestLifecycle(1)
	now := time.Now()
	id := lc.OnFetchQueued("/f", 7, 0, "nvme", now)

	// An abort carrying a stale generation's ID must not kill this entry.
	lc.OnFetchAborted("/f", 7, id+100, "superseded")
	wantCounts(t, lc, 0, 0, 0, 0)

	lc.OnFetchAborted("/f", 7, id, "superseded")
	wantCounts(t, lc, 0, 0, 1, 0)
	recs := lc.Completed()
	if len(recs) != 1 || recs[0].Class != ClassWasted {
		t.Fatalf("completed = %+v", recs)
	}
	last := recs[0].Events[len(recs[0].Events)-1]
	if last.Stage != StageAborted || last.Tier != "superseded" {
		t.Fatalf("terminal = %+v, want aborted/superseded", last)
	}
	// The abort retired the entry; a second abort is a no-op.
	lc.OnFetchAborted("/f", 7, id, "superseded")
	wantCounts(t, lc, 0, 0, 1, 0)
}

func TestLifecycleWriteInvalidationMidFetch(t *testing.T) {
	lc := newTestLifecycle(1)
	now := time.Now()
	id := lc.OnEvent("/f", 0, now)
	lc.OnFetchQueued("/f", 0, id, "ram", now)
	lc.OnFetchQueued("/f", 1, 0, "ram", now)
	lc.OnEvent("/other", 0, now) // different file, must survive

	lc.OnInvalidated("/f")
	wantCounts(t, lc, 0, 0, 2, 0)
	if lc.Active() != 1 {
		t.Fatalf("active = %d, want the untouched /other trace", lc.Active())
	}

	// The fetch completes against the dead generation: ignored, not
	// redundant — the entry was already classified.
	lc.OnFetchLanded("/f", 0, id, "ram")
	wantCounts(t, lc, 0, 0, 2, 0)
	for _, rec := range lc.Completed() {
		if got := stages(rec); got[len(got)-1] != StageInvalidated {
			t.Fatalf("terminal stage = %v, want %s", got, StageInvalidated)
		}
	}
}

func TestLifecycleRedundantLanding(t *testing.T) {
	lc := newTestLifecycle(1)
	now := time.Now()
	lc.OnFetchQueued("/f", 2, 0, "ram", now)
	// Demand read beats the fetch to the PFS...
	lc.OnReadMiss("/f", 2)
	// ...so the landing is duplicated work.
	lc.OnFetchLanded("/f", 2, 0, "ram")
	wantCounts(t, lc, 0, 0, 0, 1)
	if lc.Active() != 0 {
		t.Fatalf("active = %d, want 0 (redundant landing retires)", lc.Active())
	}

	// Duplicate landing of one generation: second copy counts redundant,
	// entry stays open and still classifies at its read.
	lc.OnFetchQueued("/g", 0, 0, "ram", now)
	lc.OnFetchLanded("/g", 0, 0, "ram")
	lc.OnFetchLanded("/g", 0, 0, "ram")
	wantCounts(t, lc, 0, 0, 0, 2)
	lc.OnReadHit("/g", 0, "ram", false)
	wantCounts(t, lc, 1, 0, 0, 2)
}

func TestLifecycleSamplingAndMemoryCap(t *testing.T) {
	lc := NewLifecycle(8, 2, 0)
	lc.SetGrain(testGrain)
	sampled := 0
	for i := 0; i < 10; i++ {
		if lc.OnEvent("/s", int64(i)*testGrain, time.Now()) != 0 {
			sampled++
		}
	}
	if sampled != 5 {
		t.Fatalf("sampled %d of 10 at 1-in-2", sampled)
	}

	// Flood one stripe past its per-stripe cap: evictions must land in
	// the ring as dropped traces, and active stays bounded.
	tight := NewLifecycle(4096, 1, 1) // perStripe floor = 4
	tight.SetGrain(testGrain)
	// Segments spread over all 64 stripes; 1024 distinct ones guarantee
	// every stripe blows past its floor of 4.
	for i := 0; i < 1024; i++ {
		tight.OnEvent("/cap", int64(i)*testGrain, time.Now())
	}
	if tight.Active() > 64*4 {
		t.Fatalf("active = %d, want bounded by the per-stripe cap", tight.Active())
	}
	dropped := 0
	for _, rec := range tight.Completed() {
		if got := stages(rec); got[len(got)-1] == StageDropped {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("cap overflow produced no dropped-trace records")
	}
}

func TestLifecycleNilSafety(t *testing.T) {
	var lc *Lifecycle
	if lc.OnEvent("/f", 0, time.Now()) != 0 {
		t.Fatal("nil OnEvent returned a trace ID")
	}
	if lc.OnFetchQueued("/f", 0, 7, "ram", time.Now()) != 7 {
		t.Fatal("nil OnFetchQueued must pass the trace through")
	}
	lc.OnFetchLanded("/f", 0, 0, "ram")
	lc.OnReadHit("/f", 0, "ram", false)
	lc.OnReadMiss("/f", 0)
	lc.OnEvicted("/f", 0)
	lc.OnFetchAborted("/f", 0, 0, "failed")
	lc.OnInvalidated("/f")
	lc.Record(StageFetch, "/f", 0, "ram", time.Now(), time.Millisecond)
	lc.SetGrain(4096)
	if lc.SegOf(1) != -1 || lc.Active() != 0 || lc.Completed() != nil || lc.Export() != nil {
		t.Fatal("nil accessors returned live values")
	}
	if lc.LeadHist() != nil || lc.AccessLog() != nil {
		t.Fatal("nil sub-structures must be nil")
	}
	var reg *Registry
	reg.EnableLifecycle(0)
	if reg.Lifecycle() != nil {
		t.Fatal("nil registry returned a lifecycle")
	}
}

func TestLifecycleRegistryMetrics(t *testing.T) {
	r := NewRegistry()
	r.EnableLifecycle(1)
	lc := r.Lifecycle()
	if lc == nil {
		t.Fatal("EnableLifecycle did not attach")
	}
	lc.SetGrain(testGrain)
	now := time.Now()
	lc.OnFetchQueued("/f", 0, 0, "ram", now)
	lc.OnFetchLanded("/f", 0, 0, "ram")
	lc.OnReadHit("/f", 0, "ram", false)
	lc.OnFetchQueued("/f", 1, 0, "ram", now)
	lc.OnEvicted("/f", 1)

	want := map[string]int64{
		"hfetch_prefetch_timely_total":      1,
		"hfetch_prefetch_wasted_total":      1,
		"hfetch_prefetch_late_total":        0,
		"hfetch_prefetch_redundant_total":   0,
		"hfetch_lifecycle_completed_total":  2,
		"hfetch_prefetch_effectiveness_ppm": 500000,
	}
	got := map[string]int64{}
	for _, m := range r.Snapshot().Metrics {
		got[m.Name] = m.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
}

func TestLifecycleSpanForwarding(t *testing.T) {
	r := NewRegistry()
	r.EnableLifecycle(1)
	lc := r.Lifecycle()
	lc.SetGrain(testGrain)
	id := lc.OnEvent("/f", 0, time.Now())
	// A registry span with segment identity joins the in-flight trace
	// with no lifecycle-specific call site.
	r.Span(StageFetch, "/f", 0, "ram", time.Now(), 3*time.Millisecond)
	lc.OnReadHit("/f", 0, "ram", false)
	recs := lc.Completed()
	if len(recs) != 1 || recs[0].ID != id {
		t.Fatalf("completed = %+v", recs)
	}
	found := false
	for _, e := range recs[0].Events {
		if e.Stage == StageFetch && e.Nanos == int64(3*time.Millisecond) {
			found = true
		}
	}
	if !found {
		t.Fatalf("span did not join the trace: %v", stages(recs[0]))
	}
}

func TestLifecycleConcurrentClassification(t *testing.T) {
	lc := newTestLifecycle(1)
	var wg sync.WaitGroup
	// Hammer one segment per goroutine through racing hooks; under -race
	// this exercises the stripe locking and the classification barrier.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			file := "/conc"
			now := time.Now()
			for i := 0; i < 200; i++ {
				seg := int64(g*200 + i)
				id := lc.OnEvent(file, seg*testGrain, now)
				lc.OnFetchQueued(file, seg, id, "ram", now)
				switch i % 4 {
				case 0:
					lc.OnFetchLanded(file, seg, id, "ram")
					lc.OnReadHit(file, seg, "ram", false)
				case 1:
					lc.OnReadHit(file, seg, "ram", true)
				case 2:
					lc.OnEvicted(file, seg)
				case 3:
					lc.OnReadMiss(file, seg)
					lc.OnFetchLanded(file, seg, id, "ram")
				}
			}
		}(g)
	}
	wg.Wait()
	timely, late, wasted, redundant := lc.EffCounts()
	if total := timely + late + wasted + redundant; total != 1600 {
		t.Fatalf("classified %d (t/l/w/r %d/%d/%d/%d), want every fetch counted exactly once (1600)",
			total, timely, late, wasted, redundant)
	}
}

func TestWriteTraceJSONRoundTrip(t *testing.T) {
	lc := newTestLifecycle(1)
	now := time.Now()
	id := lc.OnEvent("/f", 0, now)
	lc.OnFetchQueued("/f", 0, id, "ram", now)
	lc.OnFetchLanded("/f", 0, id, "ram")
	lc.OnReadHit("/f", 0, "ram", false)
	lc.OnEvent("/f", testGrain, now) // stays in flight

	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, "node0", lc.Export()); err != nil {
		t.Fatal(err)
	}
	if errs := ValidateTraceJSON(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("exported trace fails its own schema: %v", errs)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData["node"] != "node0" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}
	// Every stage of the completed trace shares one tid (= trace ID).
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Tid == id && e.Ph != "M" {
			seen[e.Name] = true
			if cl, _ := e.Args["class"].(string); cl != "timely" {
				t.Fatalf("event %s class = %q, want timely", e.Name, cl)
			}
		}
	}
	for _, st := range []string{StageEvent, StageDecide, StageLand, StageRead} {
		if !seen[st] {
			t.Fatalf("stage %s missing from export (saw %v)", st, seen)
		}
	}
}

func TestValidateTraceJSONRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"not json":      `{`,
		"no events":     `{"displayTimeUnit":"ms"}`,
		"bad phase":     `{"traceEvents":[{"name":"x","ph":"Q","pid":1,"tid":1,"ts":0}]}`,
		"missing tid":   `{"traceEvents":[{"name":"x","ph":"i","pid":1,"ts":0}]}`,
		"negative dur":  `{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":1,"ts":0,"dur":-1}]}`,
		"unnamed event": `{"traceEvents":[{"ph":"i","pid":1,"tid":1,"ts":0}]}`,
	}
	for name, doc := range cases {
		if errs := ValidateTraceJSON([]byte(doc)); len(errs) == 0 {
			t.Errorf("%s: expected validation errors, got none", name)
		}
	}
}

func TestAccessLogRecordsAndSummarizes(t *testing.T) {
	al := NewAccessLog(4)
	base := time.Unix(0, 1)
	for i := 0; i < 9; i++ {
		al.Record(AccessSample{When: base, File: "/f", Offset: int64(i), Length: 100,
			Tier: "ram", Latency: 10 * time.Microsecond})
	}
	al.Record(AccessSample{When: base, File: "/f", Offset: 9, Length: 100,
		Latency: time.Millisecond})
	if al.Len() != 4 {
		t.Fatalf("retained = %d, want ring capacity 4", al.Len())
	}
	got := al.Samples()
	if got[len(got)-1].Offset != 9 || got[0].Offset != 6 {
		t.Fatalf("ring kept wrong window: %+v", got)
	}
	sum := al.Summary()
	if sum.Total != 10 || sum.Hits != 9 || sum.HitRatio() != 0.9 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.String() == "" {
		t.Fatal("empty summary string")
	}

	var buf bytes.Buffer
	if err := WriteAccessCSV(&buf, al.Samples()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("csv lines = %d, want header + 4", len(lines))
	}
	if lines[0] != "when_unix_ns,file,offset,length,tier,hit,latency_us" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "ram") || !strings.Contains(lines[1], "true") {
		t.Fatalf("hit row = %q", lines[1])
	}
	if !strings.Contains(lines[4], "false") {
		t.Fatalf("miss row = %q", lines[4])
	}

	var nilLog *AccessLog
	nilLog.Record(AccessSample{})
	if nilLog.Len() != 0 || nilLog.Samples() != nil || nilLog.Summary().Total != 0 {
		t.Fatal("nil access log returned live values")
	}
}
