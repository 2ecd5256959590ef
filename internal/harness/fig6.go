package harness

import (
	"fmt"
	"time"

	"hfetch/internal/baselines"
	"hfetch/internal/workloads"
)

// workflowSystems builds the Figure 6 comparators: Stacker, KnowAc (with
// its profiling pass charged separately), HFetch, and no prefetching.
// All of them fetch from the burst buffers (the workflows' data is
// staged there) into a small RAM cache; HFetch additionally uses a
// node-local NVMe tier.

func runWorkflow(opts Opts, figure, config string, files map[string]int64,
	phases [][]workloads.App, ramCache, nvmeCache int64, req int64) ([]Row, error) {

	type sysDef struct {
		name string
		mk   func(env *Env) (baselines.System, error)
	}
	systems := []sysDef{
		{"stacker", func(env *Env) (baselines.System, error) {
			return baselines.NewStacker(env.FS, baselines.StackerConfig{
				CacheBytes: ramCache, CacheDevice: env.RAMDevice(),
				SegmentSize: req, Depth: 2, Workers: 4, MinCount: 2,
			}), nil
		}},
		{"knowac", nil}, // handled specially below (profiling pass)
		{"hfetch", func(env *Env) (baselines.System, error) {
			return env.NewHFetch(HFetchOpts{
				SegmentSize: req,
				Tiers: []TierDef{
					{Name: "ram", Capacity: ramCache},
					{Name: "nvme", Capacity: nvmeCache},
				},
				UpdateThreshold: 10, // medium, scaled to the emulation's event rate
				Interval:        50 * time.Millisecond,
			})
		}},
		{"none", func(env *Env) (baselines.System, error) {
			return baselines.NewNone(env.FS), nil
		}},
	}

	var rows []Row
	for _, sd := range systems {
		var profSum float64
		var originBusy time.Duration
		mean, series, err := Repeat(opts.Repeats, func() (RunResult, error) {
			env := NewEnv(OriginBB, 1)
			if err := env.CreateFiles(files); err != nil {
				return RunResult{}, err
			}
			// What the run cost the origin in modeled time, whatever the
			// host's clock did (KnowAc's includes its profiling pass).
			defer func() {
				_, _, busy := env.FS.Device().Stats()
				originBusy += busy
			}()
			if sd.name == "knowac" {
				ka := baselines.NewKnowAc(env.FS, baselines.KnowAcConfig{
					CacheBytes: ramCache, CacheDevice: env.RAMDevice(),
					SegmentSize: req, Workers: 4, Window: 128,
				})
				defer ka.Stop()
				ka.StartProfile()
				prof, err := RunPhases(ka, phases)
				if err != nil {
					return RunResult{}, err
				}
				profSum += prof.Elapsed.Seconds()
				ka.FinishProfile()
				return RunPhases(ka, phases)
			}
			sys, err := sd.mk(env)
			if err != nil {
				return RunResult{}, err
			}
			defer sys.Stop()
			return RunPhases(sys, phases)
		})
		if err != nil {
			return nil, err
		}
		row := Row{
			Figure:   figure,
			Config:   config,
			System:   sd.name,
			Seconds:  mean.Elapsed.Seconds(),
			Variance: series.Variance(),
			HitRatio: mean.HitRatio,
			Extra:    map[string]float64{"origin_busy_ms": originBusy.Seconds() * 1e3 / float64(opts.Repeats)},
		}
		if sd.name == "knowac" {
			row.Extra["profile_cost"] = profSum / float64(opts.Repeats)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig6a weak-scales the Montage workflow (320→2560 ranks mapped to
// 8→64 processes) with data staged in the burst buffers. Reproduces
// Figure 6(a): end-to-end time per solution, KnowAc's profiling cost
// reported separately.
func Fig6a(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	scales := []int{8, 16, 32, 64}
	if opts.Quick {
		scales = []int{8, 32}
	}
	var rows []Row
	for _, procs := range scales {
		r, err := fig6aScale(opts, procs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// fig6aScale is one x-axis position of Figure 6(a): every system on the
// Montage workflow of procs processes.
func fig6aScale(opts Opts, procs int) ([]Row, error) {
	const req = 64 << 10
	cfg := workloads.MontageConfig{
		Procs:      procs,
		ImageBytes: 1 << 20,
		Images:     8,
		Req:        req,
		Steps:      16,
		Think:      10 * time.Millisecond,
	}
	if opts.Quick {
		cfg.Steps = 8
		cfg.Think = 5 * time.Millisecond
	}
	apps := workloads.Montage(cfg)
	phases := make([][]workloads.App, len(apps))
	for i, a := range apps {
		phases[i] = []workloads.App{a}
	}
	return runWorkflow(opts, "fig6a", fmt.Sprintf("procs=%d", procs),
		workloads.MontageFiles(cfg), phases, 2<<20, 3<<20, req)
}

// Fig6b strong-scales the WRF workflow: the same total input divided
// across 8→64 processes, data staged in the burst buffers. Reproduces
// Figure 6(b).
func Fig6b(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	scales := []int{8, 16, 32, 64}
	if opts.Quick {
		scales = []int{8, 32}
	}
	req := int64(64 << 10)
	total := int64(16 << 20)
	if opts.Quick {
		total = 8 << 20
	}
	var rows []Row
	for _, procs := range scales {
		cfg := workloads.WRFConfig{
			Procs:      procs,
			TotalBytes: total,
			Req:        req,
			Steps:      4,
			Think:      10 * time.Millisecond,
			Domains:    4,
		}
		apps := workloads.WRF(cfg)
		phases := make([][]workloads.App, len(apps))
		for i, a := range apps {
			phases[i] = []workloads.App{a}
		}
		r, err := runWorkflow(opts, "fig6b", fmt.Sprintf("procs=%d", procs),
			workloads.WRFFiles(cfg), phases, total/8, total/4, req)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}
