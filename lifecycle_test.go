package hfetch

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"hfetch/internal/events"
	"hfetch/internal/telemetry"
)

// TestLifecycleTraceEndToEnd drives one segment through the whole
// pipeline — access event, audit, placement decision, mover queue, PFS
// fetch, landing, demand read — and asserts a single trace ID links
// every stage in the exported Perfetto JSON, with the segment counted
// exactly once as a timely prefetch.
func TestLifecycleTraceEndToEnd(t *testing.T) {
	cfg := fastConfig(1)
	cfg.EnableTelemetry = true
	cfg.EnableLifecycle = true
	cfg.LifecycleSampleEvery = 1
	cfg.TimeSampleEvery = 1
	cfg.FetchWait = 2 * time.Millisecond
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	const (
		file = "data/lifecycle"
		segs = 8
	)
	if err := cluster.CreateFile(file, segs*4096); err != nil {
		t.Fatal(err)
	}
	node := cluster.Node(0)
	lc := node.Telemetry().Lifecycle()
	if lc == nil {
		t.Fatal("EnableLifecycle did not attach a tracer")
	}

	// Open first so the auditor has an epoch, then heat the file with
	// posted access events: the engine prefetches without any demand read
	// having touched the segments.
	client := node.NewClient()
	f, err := client.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mon := node.Server().Monitor()
	for s := int64(0); s < segs; s++ {
		mon.Post(events.Event{Op: events.OpRead, File: file, Offset: s * 4096, Length: 4096})
	}
	node.Flush() // decide, queue, fetch, land — all before the read

	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	timely, late, _, _ := lc.EffCounts()
	if timely+late < 1 {
		t.Fatalf("no prefetch served the read (timely %d, late %d)", timely, late)
	}

	// Segment 0 must appear exactly once in the flight recorder, as
	// timely: classification happens once per generation.
	var rec telemetry.TraceRecord
	count := 0
	for _, r := range lc.Completed() {
		if r.File == file && r.Seg == 0 && r.Done {
			rec = r
			count++
		}
	}
	if count != 1 {
		t.Fatalf("segment 0 classified %d times, want exactly once", count)
	}
	if rec.Class != telemetry.ClassTimely {
		t.Fatalf("segment 0 class = %s, want timely (events: %+v)", rec.Class, rec.Events)
	}

	// Export and re-find the trace by ID: every stage must share it.
	var out bytes.Buffer
	if err := telemetry.WriteTraceJSON(&out, node.Server().Node(), lc.Export()); err != nil {
		t.Fatal(err)
	}
	if errs := telemetry.ValidateTraceJSON(out.Bytes()); len(errs) != 0 {
		t.Fatalf("exported trace fails schema validation: %v", errs)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  uint64  `json:"tid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Tid == rec.ID && e.Ph != "M" {
			got[e.Name] = true
		}
	}
	for _, stage := range []string{
		telemetry.StageEvent,
		telemetry.StageAudit,
		telemetry.StageDecide,
		telemetry.StageMoverQueue,
		telemetry.StageFetch,
		telemetry.StageLand,
		telemetry.StageRead,
	} {
		if !got[stage] {
			t.Errorf("trace %d is missing stage %q (saw %v)", rec.ID, stage, got)
		}
	}
}

// TestLifecycleAccessCSV checks the folded access recorder end to end:
// timed reads appear in the CSV export with tier attribution.
func TestLifecycleAccessCSV(t *testing.T) {
	cfg := fastConfig(1)
	cfg.EnableTelemetry = true
	cfg.EnableLifecycle = true
	cfg.TimeSampleEvery = 1
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.CreateFile("data/csv", 4*4096); err != nil {
		t.Fatal(err)
	}
	node := cluster.Node(0)
	f, err := node.NewClient().Open("data/csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	for s := int64(0); s < 4; s++ {
		if _, err := f.ReadAt(buf, s*4096); err != nil {
			t.Fatal(err)
		}
	}
	al := node.Telemetry().Lifecycle().AccessLog()
	if al.Len() == 0 {
		t.Fatal("no access samples recorded despite TimeSampleEvery=1")
	}
	var out bytes.Buffer
	if err := telemetry.WriteAccessCSV(&out, al.Samples()); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(lines) != al.Len()+1 {
		t.Fatalf("csv rows = %d, want %d samples + header", len(lines), al.Len())
	}
	if !bytes.Contains(lines[1], []byte("data/csv")) {
		t.Fatalf("sample row = %q", lines[1])
	}
}
