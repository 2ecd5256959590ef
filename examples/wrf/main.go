// WRF: runs the emulated Weather Research and Forecasting workflow (the
// paper's Figure 6b workload): pre-processing, an iterative main model
// that re-reads its domain data every simulated time step, and a
// post-processing/visualization pass. Compares HFetch against the
// online (Stacker-like) comparator and no prefetching.
package main

import (
	"fmt"
	"log"
	"time"

	"hfetch/internal/baselines"
	"hfetch/internal/harness"
	"hfetch/internal/workloads"
)

func main() {
	cfg := workloads.WRFConfig{
		Procs:      16,
		TotalBytes: 16 << 20,
		Req:        64 << 10,
		Steps:      4,
		Think:      10 * time.Millisecond,
		Domains:    4,
	}
	apps := workloads.WRF(cfg)
	phases := make([][]workloads.App, len(apps))
	for i, a := range apps {
		phases[i] = []workloads.App{a}
	}
	fmt.Printf("WRF: %d processes over %d MiB in %d domains, %d model steps\n",
		cfg.Procs, cfg.TotalBytes>>20, cfg.Domains, cfg.Steps)

	systems := []string{"hfetch", "stacker", "none"}
	for _, mode := range systems {
		env := harness.NewEnv(harness.OriginBB, 1)
		if err := env.CreateFiles(workloads.WRFFiles(cfg)); err != nil {
			log.Fatal(err)
		}
		var sys baselines.System
		var err error
		switch mode {
		case "hfetch":
			sys, err = env.NewHFetch(harness.HFetchOpts{
				SegmentSize: cfg.Req,
				Tiers: []harness.TierDef{
					{Name: "ram", Capacity: cfg.TotalBytes / 8},
					{Name: "nvme", Capacity: cfg.TotalBytes / 4},
				},
				UpdateThreshold: 10,
				Interval:        50 * time.Millisecond,
			})
			if err != nil {
				log.Fatal(err)
			}
		case "stacker":
			sys = baselines.NewStacker(env.FS, baselines.StackerConfig{
				CacheBytes: cfg.TotalBytes / 8, CacheDevice: env.RAMDevice(),
				SegmentSize: cfg.Req, Depth: 2, Workers: 4,
			})
		default:
			sys = baselines.NewNone(env.FS)
		}
		res, err := harness.RunPhases(sys, phases)
		if err != nil {
			log.Fatal(err)
		}
		sys.Stop()
		fmt.Printf("  %-8s %8v  hit=%5.1f%%\n",
			mode, res.Elapsed.Round(time.Millisecond), res.HitRatio*100)
	}
}
