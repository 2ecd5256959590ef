package hfetch_test

// One benchmark per figure of the paper's evaluation section, plus
// ablation benchmarks for the design choices DESIGN.md calls out. Each
// figure benchmark executes the same harness cmd/hfbench uses (quick
// scales) and reports the figure's headline metrics through
// b.ReportMetric, so `go test -bench .` regenerates the whole evaluation.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hfetch"

	"hfetch/internal/baselines"
	"hfetch/internal/core/auditor"
	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
	"hfetch/internal/dhm"
	"hfetch/internal/events"
	"hfetch/internal/harness"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

func reportRows(b *testing.B, rows []harness.Row) {
	b.Helper()
	for _, r := range rows {
		// ReportMetric units must not contain whitespace.
		key := strings.ReplaceAll(r.Config+"/"+r.System, " ", "_")
		if r.Seconds > 0 {
			b.ReportMetric(r.Seconds, key+":sec")
		}
		if r.HitRatio > 0 {
			b.ReportMetric(r.HitRatio*100, key+":hit%")
		}
		for k, v := range r.Extra {
			b.ReportMetric(v, key+":"+k)
		}
	}
}

func benchFigure(b *testing.B, fn func(harness.Opts) ([]harness.Row, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := fn(harness.Opts{Quick: true, Repeats: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportRows(b, rows)
		}
	}
}

// BenchmarkFig3aEventConsumption regenerates Figure 3(a): server event
// consumption rate vs client cores for daemon::engine splits.
func BenchmarkFig3aEventConsumption(b *testing.B) { benchFigure(b, harness.Fig3a) }

// BenchmarkFig3bReactiveness regenerates Figure 3(b): engine trigger
// sensitivity vs workload class.
func BenchmarkFig3bReactiveness(b *testing.B) { benchFigure(b, harness.Fig3b) }

// BenchmarkFig4aRAMFootprint regenerates Figure 4(a): hierarchical
// prefetching with an 8x smaller RAM footprint vs single-tier
// serial/parallel prefetchers.
func BenchmarkFig4aRAMFootprint(b *testing.B) { benchFigure(b, harness.Fig4a) }

// BenchmarkFig4bCacheExtension regenerates Figure 4(b): extending the
// prefetching cache across tiers under weak scaling.
func BenchmarkFig4bCacheExtension(b *testing.B) { benchFigure(b, harness.Fig4b) }

// BenchmarkFig5DataCentric regenerates Figure 5: application-centric vs
// data-centric prefetching across access patterns.
func BenchmarkFig5DataCentric(b *testing.B) { benchFigure(b, harness.Fig5) }

// BenchmarkFig6aMontage regenerates Figure 6(a): the Montage workflow,
// weak scaling.
func BenchmarkFig6aMontage(b *testing.B) { benchFigure(b, harness.Fig6a) }

// BenchmarkFig6bWRF regenerates Figure 6(b): the WRF workflow, strong
// scaling.
func BenchmarkFig6bWRF(b *testing.B) { benchFigure(b, harness.Fig6b) }

// ---- ablations ----

// BenchmarkAblationScoring sweeps the decay base p of Equation (1) and
// measures scoring throughput (updates/sec) for the incremental form.
func BenchmarkAblationScoring(b *testing.B) {
	for _, p := range []float64{2, 4, 8} {
		b.Run(fmt.Sprintf("p=%g", p), func(b *testing.B) {
			m := score.NewModel(score.Params{P: p, Unit: 100 * time.Millisecond})
			var st score.Stats
			t0 := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.OnAccess(&st, t0.Add(time.Duration(i)*time.Millisecond))
			}
		})
	}
}

// BenchmarkAblationPlacement compares Algorithm 1 against random and
// round-robin placement on a skewed update stream, reporting the
// fraction of the hottest decile resident in the fastest tier.
func BenchmarkAblationPlacement(b *testing.B) { benchFigure(b, harness.AblationPlacement) }

// BenchmarkAblationSegmentation compares fixed-grain and adaptive
// segmentation overhead on a mixed request stream.
func BenchmarkAblationSegmentation(b *testing.B) {
	b.Run("fixed", func(b *testing.B) {
		s := seg.NewSegmenter(64 << 10)
		rng := rand.New(rand.NewSource(7))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := int64(rng.Intn(1 << 24))
			s.Cover("f", off, int64(rng.Intn(256<<10)+1))
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		a := seg.NewAdaptive(4096)
		rng := rand.New(rand.NewSource(7))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := int64(rng.Intn(1 << 24))
			a.Observe(off, int64(rng.Intn(256<<10)+1))
		}
	})
}

// ---- microbenchmarks of the hot paths ----

// BenchmarkSegmentAuditing measures the auditor's event-processing rate
// (the Figure 3a hot path).
func BenchmarkSegmentAuditing(b *testing.B) {
	stats := dhm.New(dhm.Config{Name: "s", Self: "n0"}, nil)
	maps := dhm.New(dhm.Config{Name: "m", Self: "n0"}, nil)
	aud := auditor.New(auditor.Config{Node: "n0", Segmenter: seg.NewSegmenter(1 << 20)}, stats, maps)
	aud.StartEpoch("f", 1<<30)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		evs := make([]events.Event, 1)
		for pb.Next() {
			evs[0] = readEvent("f", int64(rng.Intn(1<<30-4096)), 4096)
			aud.HandleBatch(evs)
		}
	})
}

// BenchmarkDHMApply measures atomic read-modify-write throughput of the
// distributed hashmap (local owner).
func BenchmarkDHMApply(b *testing.B) {
	m := dhm.New(dhm.Config{Name: "bench", Self: "n0"}, nil)
	m.RegisterOp("inc", func(cur any, arg []byte) any {
		var c int64
		if cur != nil {
			c = cur.(int64)
		}
		return c + 1
	})
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.Apply(fmt.Sprintf("k%d", i%512), "inc", nil)
			i++
		}
	})
}

// BenchmarkTierReadAt measures the tier-store read path.
func BenchmarkTierReadAt(b *testing.B) {
	st := tiers.NewStore("ram", 1<<26, nil)
	id := seg.ID{File: "f", Index: 0}
	st.Put(id, make([]byte, 1<<20))
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ReadAt(id, int64(i)%(1<<20-4096), buf)
	}
}

// BenchmarkEndToEndWarmRead measures a fully warm read through the
// public client API (segment resident in RAM).
func BenchmarkEndToEndWarmRead(b *testing.B) {
	cfg := hfetch.DefaultConfig()
	cfg.SegmentSize = 1 << 20
	cfg.EngineUpdateThreshold = hfetch.ReactivenessHigh
	for i := range cfg.Tiers {
		cfg.Tiers[i].Latency = 0
		cfg.Tiers[i].Bandwidth = 0
	}
	cfg.PFS = hfetch.PFSSpec{}
	cluster, err := hfetch.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Stop()
	cluster.CreateFile("f", 8<<20)
	c := cluster.Node(0).NewClient()
	f, err := c.Open("f")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	f.ReadAt(buf, 0)
	cluster.Node(0).Flush()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ReadAt(buf, 0)
	}
}

// BenchmarkBaselineWarmRead is the comparator for EndToEndWarmRead: the
// same warm read through the single-tier prefetcher cache.
func BenchmarkBaselineWarmRead(b *testing.B) {
	fs := pfs.New(nil)
	fs.Create("f", 8<<20)
	sys := baselines.NewPrefetcher(fs, baselines.PrefetcherConfig{
		CacheBytes: 8 << 20, SegmentSize: 1 << 20, Workers: 2,
	})
	defer sys.Stop()
	h, err := sys.Open("a", "f")
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	buf := make([]byte, 4096)
	h.ReadAt(buf, 0) // prime
	time.Sleep(10 * time.Millisecond)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ReadAt(buf, 0)
	}
}

// BenchmarkExtMultiNode runs the multi-node extension experiment:
// clients spread over 1/2/4 nodes sharing one global heatmap, with
// remote tier reads over the node-to-node communicator.
func BenchmarkExtMultiNode(b *testing.B) { benchFigure(b, harness.ExtMultiNode) }
