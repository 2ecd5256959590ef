package harness

import (
	"fmt"
	"math"
	"testing"
	"time"

	"hfetch/internal/baselines"
	"hfetch/internal/config"
	"hfetch/internal/core/seg"
	"hfetch/internal/workloads"
)

func TestRunnerExecutesScripts(t *testing.T) {
	env := NewEnv(OriginPFS, 0.05)
	env.FS.Create("f", 1<<20)
	sys := baselines.NewNone(env.FS)
	defer sys.Stop()
	apps := []workloads.App{{
		Name: "a",
		Procs: []workloads.Script{
			workloads.TimeStepped("f", 1<<20, 64<<10, 2, 0),
			workloads.TimeStepped("f", 1<<20, 64<<10, 2, 0),
		},
	}}
	res, err := Run(sys, apps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 2*2*16 {
		t.Fatalf("misses = %d, want 64", res.Misses)
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed must be positive")
	}
}

func TestRunnerOpenFailure(t *testing.T) {
	env := NewEnv(OriginPFS, 0.01)
	sys := baselines.NewNone(env.FS)
	defer sys.Stop()
	apps := []workloads.App{{Name: "a", Procs: []workloads.Script{
		{{File: "ghost", Off: 0, Len: 10}},
	}}}
	if _, err := Run(sys, apps); err == nil {
		t.Fatal("missing file must propagate an error")
	}
}

func TestRunPhasesSequential(t *testing.T) {
	env := NewEnv(OriginPFS, 0.01)
	env.FS.Create("f", 1<<20)
	sys := baselines.NewNone(env.FS)
	defer sys.Stop()
	phase := []workloads.App{{Name: "p", Procs: []workloads.Script{
		workloads.TimeStepped("f", 1<<20, 64<<10, 1, 0),
	}}}
	res, err := RunPhases(sys, [][]workloads.App{phase, phase})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 32 {
		t.Fatalf("misses = %d, want 32", res.Misses)
	}
}

func TestRepeatAveragesAndVariance(t *testing.T) {
	n := 0
	mean, series, err := Repeat(3, func() (RunResult, error) {
		n++
		return RunResult{Elapsed: time.Duration(n) * time.Second, HitRatio: 0.5}, nil
	})
	if err != nil || len(series) != 3 {
		t.Fatalf("repeat: %v, n=%d", err, len(series))
	}
	if mean.Elapsed != 2*time.Second {
		t.Fatalf("mean = %v, want 2s", mean.Elapsed)
	}
	if series.Variance() <= 0 {
		t.Fatal("variance must be positive for distinct runs")
	}
	if mean.HitRatio != 0.5 {
		t.Fatalf("hit ratio mean = %v", mean.HitRatio)
	}
}

func TestSeriesStatistics(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("empty series must be zeros")
	}
	s = append(s, 2)
	if s.Variance() != 0 {
		t.Fatal("single-value variance must be 0")
	}
	s = append(s, 4, 6)
	if math.Abs(s.Mean()-4) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Population variance of {2,4,6} = 8/3.
	if math.Abs(s.Variance()-8.0/3.0) > 1e-12 {
		t.Fatalf("variance = %v", s.Variance())
	}
}

func TestHFetchEnvBuilderRejectsBadTiers(t *testing.T) {
	env := NewEnv(OriginPFS, 1)
	if _, err := env.NewHFetch(HFetchOpts{}); err == nil {
		t.Fatal("no tiers must be rejected")
	}
	if _, err := env.NewHFetch(HFetchOpts{Tiers: []TierDef{{Name: "zzz", Capacity: 1}}}); err == nil {
		t.Fatal("unknown tier must be rejected")
	}
}

func TestRowString(t *testing.T) {
	r := Row{Figure: "figX", Config: "c", System: "s", Seconds: 1.5, HitRatio: 0.5,
		Extra: map[string]float64{"k": 2}}
	s := r.String()
	if s == "" {
		t.Fatal("empty row string")
	}
}

// Shape smoke test: on a shared-file workload, HFetch must beat the
// no-prefetching baseline and produce hits.
func TestHFetchBeatsNoneOnSharedReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	run := func(mk func(env *Env) (baselines.System, error)) RunResult {
		env := NewEnv(OriginPFS, 1)
		env.FS.Create("f", 1<<20)
		apps := []workloads.App{{Name: "a"}}
		for p := 0; p < 8; p++ {
			apps[0].Procs = append(apps[0].Procs,
				workloads.TimeStepped("f", 1<<20, 64<<10, 4, 10*time.Millisecond))
		}
		sys, err := mk(env)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Stop()
		res, err := Run(sys, apps)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hf := run(func(env *Env) (baselines.System, error) {
		return env.NewHFetch(HFetchOpts{
			SegmentSize:     64 << 10,
			Tiers:           []TierDef{{Name: "ram", Capacity: 2 << 20}},
			UpdateThreshold: 1,
		})
	})
	none := run(func(env *Env) (baselines.System, error) { return baselines.NewNone(env.FS), nil })
	if hf.HitRatio < 0.5 {
		t.Fatalf("hfetch hit ratio = %.2f, want > 0.5 on re-read workload", hf.HitRatio)
	}
	if hf.Elapsed >= none.Elapsed {
		t.Fatalf("hfetch (%v) must beat none (%v) on shared re-reads", hf.Elapsed, none.Elapsed)
	}
}

// TestNewHFetchBuildsTheShippedPipeline: what the figures measure is what
// cmd/hfetchd runs — config.Default()'s event rings, and moves that go
// through the mover — with only the experiment's grain, tiers and
// triggers set.
func TestNewHFetchBuildsTheShippedPipeline(t *testing.T) {
	env := NewEnv(OriginPFS, 0.01)
	env.FS.Create("f", 1<<20)
	sys, err := env.NewHFetch(HFetchOpts{
		SegmentSize: 64 << 10,
		Tiers:       []TierDef{{Name: "ram", Capacity: 2 << 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	if got, want := sys.Server().Monitor().Shards(), config.Default().EventShards; got != want {
		t.Fatalf("%d event rings, the daemon ships %d", got, want)
	}
	apps := []workloads.App{{Name: "a", Procs: []workloads.Script{
		workloads.TimeStepped("f", 1<<20, 64<<10, 2, 0)}}}
	if _, err := Run(sys, apps); err != nil {
		t.Fatal(err)
	}
	sys.Server().Flush()
	if ms := sys.Server().Engine().MoverStats(); ms.Submitted == 0 || ms.Executed == 0 {
		t.Fatalf("mover stats = %+v: placements did not go through the mover", ms)
	}
}

// TestFig6aShapeOnModeledTime holds Figure 6(a)'s claim at its smallest
// scale on counts and modeled device time, which the host's clock cannot
// move: HFetch costs the origin less device time than no prefetching
// (each segment fetched once and re-read from a tier) and serves a larger
// share of reads from its cache than Stacker, which serves some.
func TestFig6aShapeOnModeledTime(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	rows, err := fig6aScale(Opts{Quick: true, Repeats: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]Row{}
	for _, r := range rows {
		by[r.System] = r
	}
	hf, none, stacker := by["hfetch"], by["none"], by["stacker"]
	if hb, nb := hf.Extra["origin_busy_ms"], none.Extra["origin_busy_ms"]; !(hb > 0 && hb < nb) {
		t.Fatalf("origin busy: hfetch %.1f ms, none %.1f ms; want 0 < hfetch < none", hb, nb)
	}
	if !(hf.HitRatio > stacker.HitRatio && stacker.HitRatio > 0) {
		t.Fatalf("hit ratio: hfetch %.3f, stacker %.3f; want hfetch > stacker > 0", hf.HitRatio, stacker.HitRatio)
	}
}

func TestAblationPlacementShape(t *testing.T) {
	rows, err := AblationPlacement(Opts{Quick: true, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The stream and every rule are deterministic, so each row's share of
	// the hottest decile in RAM is pinned: a change to any rule shows.
	want := map[string]string{"score(alg1)": "100.0", "random": "26.9", "roundrobin": "15.4"}
	for _, r := range rows {
		if got := fmt.Sprintf("%.1f", r.Extra["hot_decile_in_ram_pct"]); got != want[r.System] {
			t.Errorf("%s keeps %s%% of the hot decile in RAM, want %s%%", r.System, got, want[r.System])
		}
		if r.Extra["plan_us"] <= 0 {
			t.Errorf("%s reports a planning cost of %v µs, want it above 0", r.System, r.Extra["plan_us"])
		}
	}
}

// TestFNVPickIsNotIndexParity: on one file the random rule's pick over
// two tiers must depend on more than the index's low bit, and split 256
// segments roughly evenly.
func TestFNVPickIsNotIndexParity(t *testing.T) {
	same, first := 0, 0
	for i := int64(0); i < 256; i++ {
		pick := fnvPick(seg.ID{File: "f", Index: i}) % 2
		if pick == uint64(i&1) {
			same++
		}
		if pick == 0 {
			first++
		}
	}
	if same == 0 || same == 256 {
		t.Errorf("the pick over two tiers is the index's parity (%d of 256 picks equal Index&1)", same)
	}
	if first < 256*40/100 || first > 256*60/100 {
		t.Errorf("the first tier gets %d of 256 picks, want 40-60%%", first)
	}
}

func TestAblationScoringShape(t *testing.T) {
	rows, err := AblationScoring(Opts{Quick: true})
	if err != nil || len(rows) != 3 {
		t.Fatal(err)
	}
	// Higher p decays faster: retention must be non-increasing.
	prev := rows[0].Extra["retention_units"]
	for _, r := range rows[1:] {
		cur := r.Extra["retention_units"]
		if cur > prev {
			t.Fatalf("retention must fall with p: %v", rows)
		}
		prev = cur
	}
}

func TestAblationSegmentationShape(t *testing.T) {
	rows, err := AblationSegmentation(Opts{Quick: true})
	if err != nil || len(rows) != 2 {
		t.Fatal(err)
	}
	fixed, adaptive := rows[0], rows[1]
	if adaptive.Extra["overfetch_mib"] >= fixed.Extra["overfetch_mib"] {
		t.Fatalf("adaptive must over-fetch less: %v vs %v", adaptive.Extra, fixed.Extra)
	}
	if adaptive.Extra["segments"] <= fixed.Extra["segments"] {
		t.Fatalf("adaptive pays with more segments: %v vs %v", adaptive.Extra, fixed.Extra)
	}
}

func TestExtMultiNodeRemoteTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	rows, err := ExtMultiNode(Opts{Quick: true, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Extra["remote_reads"] != 0 {
		t.Fatal("single node must have no remote reads")
	}
	if rows[2].Extra["remote_reads"] == 0 {
		t.Fatal("4 nodes must produce remote tier reads")
	}
}

func TestAblationCachePolicyShape(t *testing.T) {
	rows, err := AblationCachePolicy(Opts{Quick: true, Repeats: 1})
	if err != nil || len(rows) != 2 {
		t.Fatal(err)
	}
	lru, lrfu := rows[0].Extra["hot_resident_pct"], rows[1].Extra["hot_resident_pct"]
	if lrfu <= lru {
		t.Fatalf("LRFU must protect the hot set from scan floods: lru=%.1f lrfu=%.1f", lru, lrfu)
	}
	if lrfu < 50 {
		t.Fatalf("LRFU hot residency = %.1f%%, want most of the hot set", lrfu)
	}
}

func TestLRFUKeepsFrequentOverRecent(t *testing.T) {
	for _, c := range []struct {
		name     string
		victim   victimRule
		evicted0 bool
	}{{"lru", lru, true}, {"lrfu", lrfu(0.5), false}} {
		m := newCacheModel(2, c.victim)
		// Segment 0 is accessed many times, segment 1 once, more
		// recently; inserting 2 evicts one of them.
		for range 11 {
			m.access(0)
		}
		m.access(1)
		m.access(2)
		if _, kept := m.ticks[0]; kept == c.evicted0 {
			t.Errorf("%s: segment 0 resident = %v, want %v", c.name, kept, !c.evicted0)
		}
		if _, kept := m.ticks[1]; kept != c.evicted0 {
			t.Errorf("%s: segment 1 resident = %v, want %v", c.name, kept, c.evicted0)
		}
	}
}

func TestLRFUDecayForgetsStaleFrequency(t *testing.T) {
	m := newCacheModel(2, lrfu(1)) // aggressive decay for the test
	for range 10 {
		m.access(0)
	}
	for range 6 {
		m.access(1) // six ticks: 0's ten accesses decay below 1's six
	}
	m.access(2)
	if _, kept := m.ticks[0]; kept {
		t.Fatal("decayed frequency must not outrank fresh accesses")
	}
	if _, kept := m.ticks[1]; !kept {
		t.Fatal("the freshly accessed segment must stay")
	}
}

func TestDrainDeviceTimesTotalsByNameAndForgets(t *testing.T) {
	DrainDeviceTimes() // whatever earlier tests built
	env := NewEnv(OriginPFS, 0.1)
	env.FS.Device().Access(64 << 10)
	env.RAMDevice().Access(1)
	env.RAMDevice().Access(1)
	env.RAMDevice() // never used: not reported
	got := DrainDeviceTimes()
	if len(got) != 2 || got[0].Name != "pfs" || got[0].Ops != 1 || got[1].Name != "ram" || got[1].Ops != 2 {
		t.Fatalf("DrainDeviceTimes = %+v, want pfs with 1 op then ram with 2", got)
	}
	if pfs := got[0]; pfs.Busy <= 0 || pfs.Blocked <= 0 || pfs.Overshoot > pfs.Blocked {
		t.Fatalf("pfs times = %+v, want busy and blocked above zero and overshoot within blocked", pfs)
	}
	if again := DrainDeviceTimes(); len(again) != 0 {
		t.Fatalf("second drain = %+v, want nothing", again)
	}
}
