// Montage: runs the emulated Montage astronomical mosaic workflow (the
// paper's Figure 6a workload) against HFetch and the no-prefetching
// baseline, printing end-to-end time and hit ratio for both. The
// workflow's four phases (projection, re-projection, diff/fit,
// background correction) run as a pipeline; data is staged in the burst
// buffers.
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
	cfg := workloads.MontageConfig{
		Procs:      16,
		ImageBytes: 1 << 20,
		Images:     8,
		Req:        64 << 10,
		Steps:      8,
		Think:      5 * time.Millisecond,
	}
	apps := workloads.Montage(cfg)
	phases := make([][]workloads.App, len(apps))
	for i, a := range apps {
		phases[i] = []workloads.App{a}
	}
	fmt.Printf("Montage: %d processes, %d images x %d MiB, %d phase-steps\n",
		cfg.Procs, cfg.Images, cfg.ImageBytes>>20, cfg.Steps)

	for _, mode := range []string{"hfetch", "none"} {
		env := harness.NewEnv(harness.OriginBB, 1)
		if err := env.CreateFiles(workloads.MontageFiles(cfg)); err != nil {
			log.Fatal(err)
		}
		var sys baselines.System
		if mode == "hfetch" {
			var err error
			sys, err = env.NewHFetch(harness.HFetchOpts{
				SegmentSize: cfg.Req,
				Tiers: []harness.TierDef{
					{Name: "ram", Capacity: 2 << 20},
					{Name: "nvme", Capacity: 3 << 20},
				},
				UpdateThreshold: 10,
				Interval:        50 * time.Millisecond,
			})
			if err != nil {
				log.Fatal(err)
			}
		} else {
			sys = baselines.NewNone(env.FS)
		}
		res, err := harness.RunPhases(sys, phases)
		if err != nil {
			log.Fatal(err)
		}
		sys.Stop()
		fmt.Printf("  %-8s %8v  hit=%5.1f%%  (%d hits, %d misses)\n",
			mode, res.Elapsed.Round(time.Millisecond), res.HitRatio*100, res.Hits, res.Misses)
	}
}
