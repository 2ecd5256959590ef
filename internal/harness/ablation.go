package harness

import (
	"fmt"
	"math/rand"
	"time"

	"hfetch/internal/baselines"
	"hfetch/internal/core/auditor"
	"hfetch/internal/core/ioclient"
	"hfetch/internal/core/placement"
	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
	"hfetch/internal/dhm"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

// AblationPlacement compares Algorithm 1 against the random and
// round-robin placement alternatives §IV-A mentions, on a Zipf-skewed
// score stream: the metric is how much of the hottest decile lands in
// the fastest tier, plus the planning cost.
func AblationPlacement(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	policies := []struct {
		name string
		p    placement.Policy
	}{
		{"score(alg1)", placement.PolicyScore},
		{"random", placement.PolicyRandom},
		{"roundrobin", placement.PolicyRoundRobin},
	}
	const segSize = 1 << 10
	var rows []Row
	for _, pol := range policies {
		var hotFrac float64
		var planSec float64
		for rep := 0; rep < opts.Repeats; rep++ {
			fs := pfs.New(nil)
			fs.Create("f", 1<<30)
			segr := seg.NewSegmenter(segSize)
			ram := tiers.NewStore("ram", 32*segSize, nil)
			nvme := tiers.NewStore("nvme", 96*segSize, nil)
			hier := tiers.NewHierarchy(ram, nvme)
			stats := dhm.New(dhm.Config{Name: "s", Self: "n0"}, nil)
			maps := dhm.New(dhm.Config{Name: "m", Self: "n0"}, nil)
			aud := auditor.New(auditor.Config{Node: "n0", Segmenter: segr}, stats, maps)
			eng := placement.New(placement.Config{Policy: pol.p, Workers: 4}, hier,
				ioclient.New(fs, segr), aud)
			rng := rand.New(rand.NewSource(int64(rep)))
			start := time.Now()
			var ups []auditor.Update
			for j := 0; j < 4096; j++ {
				k := int64(rng.Intn(256))
				ups = append(ups, auditor.Update{
					ID: seg.ID{File: "f", Index: k}, Score: 1 / float64(k+1), Size: segSize,
				})
				if j%128 == 0 {
					eng.ScoreBatch(ups)
					ups = ups[:0]
					eng.Flush()
				}
			}
			eng.ScoreBatch(ups)
			eng.Flush()
			planSec += time.Since(start).Seconds()
			hot := 0
			for k := int64(0); k < 26; k++ {
				if ram.Has(seg.ID{File: "f", Index: k}) {
					hot++
				}
			}
			hotFrac += float64(hot) / 26
			eng.Stop()
		}
		rows = append(rows, Row{
			Figure:  "abl-place",
			Config:  "zipf-256seg",
			System:  pol.name,
			Seconds: planSec / float64(opts.Repeats),
			Extra: map[string]float64{
				"hot_decile_in_ram_pct": hotFrac / float64(opts.Repeats) * 100,
			},
		})
	}
	return rows, nil
}

// AblationScoring sweeps the decay base p of Equation (1) and reports
// how long a once-hot segment stays above an eviction threshold — the
// retention/adaptivity trade-off the parameter controls.
func AblationScoring(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	var rows []Row
	for _, p := range []float64{2, 4, 8} {
		m := score.NewModel(score.Params{P: p, Unit: 100 * time.Millisecond})
		var st score.Stats
		t0 := time.Unix(0, 0)
		for i := 0; i < 10; i++ {
			m.OnAccess(&st, t0)
		}
		// How many decay units until the score falls below 1?
		units := 0
		for ; units < 1000; units++ {
			at := t0.Add(time.Duration(units) * 100 * time.Millisecond)
			if m.Score(&st, at) < 1 {
				break
			}
		}
		rows = append(rows, Row{
			Figure: "abl-score",
			Config: fmt.Sprintf("p=%g", p),
			System: "eq1",
			Extra:  map[string]float64{"retention_units": float64(units)},
		})
	}
	return rows, nil
}

// AblationSegmentation compares fixed-grain and adaptive segmentation on
// a mixed request stream: segment count (metadata footprint) and bytes
// the prefetch unit would over-fetch relative to what was requested.
func AblationSegmentation(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	const fileSize = 1 << 24
	rng := rand.New(rand.NewSource(11))
	type req struct{ off, ln int64 }
	reqs := make([]req, 4096)
	for i := range reqs {
		// Mixed workload: small random reads with occasional large scans.
		ln := int64(rng.Intn(48<<10) + 4<<10)
		if i%16 == 0 {
			ln = int64(rng.Intn(512<<10) + 128<<10)
		}
		reqs[i] = req{off: int64(rng.Intn(fileSize - int(ln))), ln: ln}
	}

	var rows []Row
	// Fixed 64 KiB grain.
	fixed := seg.NewSegmenter(64 << 10)
	var fixedSegs = map[int64]struct{}{}
	var fixedOver int64
	for _, r := range reqs {
		ids := fixed.Cover("f", r.off, r.ln)
		var covered int64
		for _, id := range ids {
			fixedSegs[id.Index] = struct{}{}
			covered += fixed.RangeOf(id, fileSize).Len
		}
		fixedOver += covered - r.ln
	}
	rows = append(rows, Row{
		Figure: "abl-seg", Config: "mixed-4096reqs", System: "fixed-64k",
		Extra: map[string]float64{
			"segments":      float64(len(fixedSegs)),
			"overfetch_mib": float64(fixedOver) / (1 << 20),
		},
	})

	// Adaptive segmentation derives boundaries from the stream itself.
	ad := seg.NewAdaptive(1 << 16)
	var adOver int64
	for _, r := range reqs {
		var covered int64
		for _, rg := range ad.Observe(r.off, r.ln) {
			covered += rg.Len
		}
		adOver += covered - r.ln
	}
	rows = append(rows, Row{
		Figure: "abl-seg", Config: "mixed-4096reqs", System: "adaptive",
		Extra: map[string]float64{
			"segments":      float64(len(ad.Segments())),
			"overfetch_mib": float64(adOver) / (1 << 20),
		},
	})
	return rows, nil
}

// AblationCachePolicy compares LRU and LRFU eviction in the single-tier
// prefetcher cache on a hot-set-plus-scan workload: a scan floods an LRU
// cache and evicts the hot set, while LRFU's frequency term protects it.
func AblationCachePolicy(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	const (
		segSize  = 64 << 10
		hotSegs  = 8
		coldSegs = 64
		rounds   = 6
	)
	policies := []struct {
		name string
		p    baselines.EvictionPolicy
	}{
		{"lru", baselines.EvictLRU},
		{"lrfu", baselines.EvictLRFU},
	}
	var rows []Row
	for _, pol := range policies {
		var hitSum float64
		for rep := 0; rep < opts.Repeats; rep++ {
			fs := pfs.New(nil)
			fs.Create("hot", hotSegs*segSize)
			fs.Create("cold", coldSegs*segSize)
			sys := baselines.NewPrefetcher(fs, baselines.PrefetcherConfig{
				CacheBytes:  (hotSegs + coldSegs/4) * segSize,
				SegmentSize: segSize,
				Depth:       2,
				Workers:     2,
				Eviction:    pol.p,
				Lambda:      0.05,
			})
			hotF, err := sys.Open("a", "hot")
			if err != nil {
				return nil, err
			}
			coldF, _ := sys.Open("a", "cold")
			buf := make([]byte, segSize)
			// Hot reads are paced (compute on each block) so readahead
			// lands ahead of the reader and the hot set accumulates
			// cache touches; the cold scan is an unpaced flood.
			hotPass := func() {
				for i := int64(0); i < hotSegs; i++ {
					hotF.ReadAt(buf, i*segSize)
					time.Sleep(500 * time.Microsecond)
				}
			}
			for r := 0; r < rounds; r++ {
				hotPass()
				for i := int64(0); i < coldSegs; i++ {
					coldF.ReadAt(buf, i*segSize)
				}
				time.Sleep(5 * time.Millisecond) // let prefetches land
			}
			// The metric is hot-set residency after the final cold
			// flood: how much of the working set survived the scan.
			hitSum += float64(sys.ResidentOf("hot")) / float64(hotSegs)
			hotF.Close()
			coldF.Close()
			sys.Stop()
		}
		rows = append(rows, Row{
			Figure: "abl-cache",
			Config: "hotset-vs-scan",
			System: pol.name,
			Extra: map[string]float64{
				"hot_resident_pct": hitSum / float64(opts.Repeats) * 100,
			},
		})
	}
	return rows, nil
}
