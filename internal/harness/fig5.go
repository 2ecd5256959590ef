package harness

import (
	"fmt"
	"time"

	"hfetch/internal/baselines"
	"hfetch/internal/workloads"
)

// Fig5 compares application-centric and data-centric (HFetch)
// prefetching across the four canonical access patterns. Four
// applications read the same dataset; the prefetching cache fits only
// half of it, so the applications compete. Reproduces Figure 5:
// end-to-end time per approach plus both hit ratios per pattern.
func Fig5(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	const nApps = 4
	procsPerApp := 8
	fileSize := int64(2 << 20)
	req := int64(64 << 10)
	think := 10 * time.Millisecond
	if opts.Quick {
		procsPerApp = 4
		fileSize = 1 << 20
	}
	totalPerProc := fileSize // each process reads a file's worth of data
	// The distinct dataset: 4 shared files every application reads.
	dataBytes := int64(4) * fileSize

	// Every app reads the same 4 files: app i's process j works on file
	// j%4, so each file is shared across all applications.
	// The four applications form an analysis/visualization pipeline:
	// stage i starts a beat after stage i-1, so later stages re-read data
	// earlier stages already touched (the WORM, read-many shape).
	stagger := 120 * time.Millisecond
	build := func(p workloads.Pattern) []workloads.App {
		apps := make([]workloads.App, nApps)
		for i := range apps {
			apps[i].Name = fmt.Sprintf("app%d", i)
			for j := 0; j < procsPerApp; j++ {
				file := fmt.Sprintf("fig5/f%d", j%4)
				sc := workloads.PatternScript(p, file, fileSize, req, totalPerProc, think, int64(i*100+j))
				if len(sc) > 0 {
					sc[0].Think += time.Duration(i) * stagger
				}
				apps[i].Procs = append(apps[i].Procs, sc)
			}
		}
		return apps
	}

	var rows []Row
	for _, pattern := range workloads.Patterns() {
		type sysDef struct {
			name string
			mk   func(env *Env) (baselines.System, error)
		}
		systems := []sysDef{
			{"app-centric", func(env *Env) (baselines.System, error) {
				return baselines.NewAppCentric(env.FS, baselines.AppCentricConfig{
					// Fits the load of 2 of the 4 applications, split into
					// per-application partitions (the client-pull design).
					CacheBytes:  2 * dataBytes,
					CacheDevice: env.RAMDevice(),
					SegmentSize: req, Depth: 4, Workers: 4, Apps: nApps,
				}), nil
			}},
			{"data-centric", func(env *Env) (baselines.System, error) {
				return env.NewHFetch(HFetchOpts{
					SegmentSize: req,
					Tiers: []TierDef{ // one app's load in RAM, one in NVMe
						{Name: "ram", Capacity: dataBytes},
						{Name: "nvme", Capacity: dataBytes},
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
				apps := build(pattern)
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
				Figure:   "fig5",
				Config:   string(pattern),
				System:   sd.name,
				Seconds:  mean.Elapsed.Seconds(),
				Variance: series.Variance(),
				HitRatio: mean.HitRatio,
			})
		}
	}
	return rows, nil
}
