package harness

import (
	"fmt"
	"time"

	"hfetch/internal/baselines"
	"hfetch/internal/workloads"
)

// Fig4a compares a hierarchical prefetcher against single-tier serial
// and parallel prefetchers and no prefetching, with HFetch's RAM
// footprint 8x smaller than the single-tier caches. Reproduces Figure
// 4(a): end-to-end time per solution.
func Fig4a(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	procs, steps := 32, 10
	fileSize := int64(2 << 20)
	req := int64(64 << 10)
	think := 30 * time.Millisecond
	if opts.Quick {
		procs, steps = 16, 5
		fileSize = 1 << 20
		think = 15 * time.Millisecond
	}
	groups := procs / 4 // 4 processes share each file
	dataBytes := int64(groups) * fileSize

	build := func() []workloads.App {
		apps := make([]workloads.App, groups)
		for g := range apps {
			file := fmt.Sprintf("fig4a/f%d", g)
			apps[g].Name = fmt.Sprintf("app%d", g)
			for p := 0; p < 4; p++ {
				sc := workloads.TimeSteppedCompute(file, fileSize, req, steps, think, 2*time.Millisecond)
				// Ranks are never in perfect lockstep: a small skew lets
				// the first reader's accesses warm the hierarchy for the
				// rest of its group.
				sc[0].Think += time.Duration(p) * 10 * time.Millisecond
				apps[g].Procs = append(apps[g].Procs, sc)
			}
		}
		return apps
	}

	type sysDef struct {
		name string
		mk   func(env *Env) (baselines.System, error)
		ram  int64
	}
	systems := []sysDef{
		{"parallel", func(env *Env) (baselines.System, error) {
			return baselines.NewPrefetcher(env.FS, baselines.PrefetcherConfig{
				CacheBytes: dataBytes, CacheDevice: env.RAMDevice(),
				SegmentSize: req, Depth: 8, Workers: 4,
			}), nil
		}, dataBytes},
		{"hfetch", func(env *Env) (baselines.System, error) {
			return env.NewHFetch(HFetchOpts{
				SegmentSize: req,
				Tiers: []TierDef{
					{Name: "ram", Capacity: dataBytes / 8},
					{Name: "nvme", Capacity: 3 * dataBytes / 8},
					{Name: "bb", Capacity: dataBytes / 2},
				},
				UpdateThreshold: 10, // medium, scaled to the emulation's event rate
				Interval:        50 * time.Millisecond,
			})
		}, dataBytes / 8},
		{"serial", func(env *Env) (baselines.System, error) {
			return baselines.NewPrefetcher(env.FS, baselines.PrefetcherConfig{
				CacheBytes: dataBytes, CacheDevice: env.RAMDevice(),
				SegmentSize: req, Depth: 8, Workers: 1,
			}), nil
		}, dataBytes},
		{"none", func(env *Env) (baselines.System, error) {
			return baselines.NewNone(env.FS), nil
		}, 0},
	}

	var rows []Row
	for _, sd := range systems {
		mean, series, err := Repeat(opts.Repeats, func() (RunResult, error) {
			env := NewEnv(OriginPFS, 1)
			apps := build()
			if err := createAll(env, apps, fileSize); err != nil {
				return RunResult{}, err
			}
			sys, err := sd.mk(env)
			if err != nil {
				return RunResult{}, err
			}
			defer sys.Stop()
			return Run(sys, apps)
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Figure:   "fig4a",
			Config:   "reduce-ram-8x",
			System:   sd.name,
			Seconds:  mean.Elapsed.Seconds(),
			Variance: series.Variance(),
			HitRatio: mean.HitRatio,
			Extra:    map[string]float64{"ram_mb": float64(sd.ram) / (1 << 20)},
		})
	}
	return rows, nil
}

// Fig4b weak-scales client processes and compares extending the
// prefetching cache across tiers (HFetch) against in-memory-only
// prefetchers and no prefetching. Reproduces Figure 4(b).
func Fig4b(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	scales := []int{8, 16, 32, 64} // stands for 320..2560 ranks
	if opts.Quick {
		scales = []int{8, 32}
	}
	// Weak scaling: every process owns a private file it sweeps in
	// `steps` time steps. At the smallest scale the in-memory cache
	// holds everything (all solutions equal, as in the paper); at the
	// largest it holds 1/8 of the data.
	fileSize := int64(512 << 10)
	req := int64(64 << 10)
	steps := 4
	think := 40 * time.Millisecond
	ramCache := int64(8) * fileSize // the in-memory prefetchers' entire cache

	var rows []Row
	for _, procs := range scales {
		build := func() []workloads.App {
			app := workloads.App{Name: "app0"}
			for p := 0; p < procs; p++ {
				file := fmt.Sprintf("fig4b/p%d", p)
				app.Procs = append(app.Procs,
					workloads.TimeSteppedCompute(file, fileSize, req, steps, think, 2*time.Millisecond))
			}
			return []workloads.App{app}
		}

		type sysDef struct {
			name string
			mk   func(env *Env) (baselines.System, error)
		}
		systems := []sysDef{
			{"inmem-optimal", func(env *Env) (baselines.System, error) {
				return baselines.NewInMemOptimal(env.FS, baselines.InMemConfig{
					CacheBytes: ramCache, CacheDevice: env.RAMDevice(),
					SegmentSize: req, Depth: 8, Processes: procs,
				}), nil
			}},
			{"inmem-naive", func(env *Env) (baselines.System, error) {
				return baselines.NewInMemNaive(env.FS, baselines.InMemConfig{
					CacheBytes: ramCache, CacheDevice: env.RAMDevice(),
					SegmentSize: req, Depth: 8, Processes: procs,
				}), nil
			}},
			{"hfetch", func(env *Env) (baselines.System, error) {
				return env.NewHFetch(HFetchOpts{
					SegmentSize: req,
					Tiers: []TierDef{
						{Name: "ram", Capacity: ramCache},
						{Name: "nvme", Capacity: 3 * ramCache},
						{Name: "bb", Capacity: 4 * ramCache},
					},
					UpdateThreshold: 10, // medium, scaled to the emulation's event rate
					Interval:        50 * time.Millisecond,
				})
			}},
			{"none", func(env *Env) (baselines.System, error) {
				return baselines.NewNone(env.FS), nil
			}},
		}
		for _, sd := range systems {
			mean, series, err := Repeat(opts.Repeats, func() (RunResult, error) {
				env := NewEnv(OriginPFS, 1)
				apps := build()
				if err := createAll(env, apps, fileSize); err != nil {
					return RunResult{}, err
				}
				sys, err := sd.mk(env)
				if err != nil {
					return RunResult{}, err
				}
				defer sys.Stop()
				return Run(sys, apps)
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Row{
				Figure:   "fig4b",
				Config:   fmt.Sprintf("procs=%d", procs),
				System:   sd.name,
				Seconds:  mean.Elapsed.Seconds(),
				Variance: series.Variance(),
				HitRatio: mean.HitRatio,
			})
		}
	}
	return rows, nil
}
