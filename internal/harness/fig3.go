package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hfetch"
	"hfetch/internal/core/placement"
	"hfetch/internal/events"
	"hfetch/internal/tiers"
	"hfetch/internal/workloads"
)

// Fig3a measures the HFetch server's event consumption rate (events per
// second) while scaling the number of client cores, for three
// daemon::engine thread splits of an 8-thread server (2::6, 4::4, 6::2):
// a daemon is an event ring with its drainer, an engine thread one of the
// mover's PFS fetch streams. Reproduces Figure 3(a). It is the one place
// an experiment sets the size of the pipeline.
func Fig3a(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	// The consumption-rate measurement needs sustained pressure, not the
	// paper's absolute event count: 20K events per client keeps the
	// queue saturated at every scale while finishing in minutes on a
	// small host.
	perClient := 20_000
	clientScales := []int{4, 8, 16, 32, 64, 128}
	if opts.Quick {
		perClient = 5_000
		clientScales = []int{4, 16, 64}
	}
	splits := []struct{ daemons, engine int }{{2, 6}, {4, 4}, {6, 2}}

	var rows []Row
	for _, split := range splits {
		for _, clients := range clientScales {
			var rates []float64
			for rep := 0; rep < opts.Repeats; rep++ {
				rate, err := eventStorm(clients, perClient, split.daemons, split.engine)
				if err != nil {
					return nil, err
				}
				rates = append(rates, rate)
			}
			mean := 0.0
			for _, r := range rates {
				mean += r
			}
			mean /= float64(len(rates))
			rows = append(rows, Row{
				Figure: "fig3a",
				Config: fmt.Sprintf("%d::%d clients=%d", split.daemons, split.engine, clients),
				System: "hfetch",
				Extra:  map[string]float64{"events_per_sec": mean},
			})
		}
	}
	return rows, nil
}

// eventStorm posts clients*perClient enriched read events into a server
// with the given thread split and returns the consumption rate.
func eventStorm(clients, perClient, daemons, engineThreads int) (float64, error) {
	env := NewEnv(OriginPFS, 1)
	const fileSize = 64 << 20
	files := make([]string, 8)
	for i := range files {
		files[i] = fmt.Sprintf("storm/f%d", i)
		env.FS.Create(files[i], fileSize)
	}
	cfg := hfetch.DefaultConfig()
	cfg.EventShards = daemons
	cfg.EngineThreads = engineThreads
	scfg := cfg.ServerConfig("node0")
	scfg.Monitor.QueueCap = 1 << 17
	sys, err := startHFetch(scfg, env.FS, tiers.NewHierarchy(tiers.NewStore("ram", 4<<20, nil)))
	if err != nil {
		return 0, err
	}
	defer sys.Stop()
	srv := sys.Server()
	for _, f := range files {
		srv.StartEpoch(f, fileSize)
	}

	total := clients * perClient
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			f := files[c%len(files)]
			for i := 0; i < perClient; i++ {
				srv.PostEvent(events.Event{
					Op:     events.OpRead,
					File:   f,
					Offset: rng.Int63n(fileSize - 4096),
					Length: 4096,
					Time:   time.Now(),
				})
			}
		}(c)
	}
	wg.Wait()
	// Producers done; wait for the daemon pool to drain the queue.
	for srv.Monitor().Consumed() < int64(total) {
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	return float64(total) / elapsed.Seconds(), nil
}

// Fig3b measures engine reactiveness: three trigger sensitivities (high
// = every score update, medium = every 100, low = every 1024) across
// three compute/I/O balances (w1 data-intensive, w2 balanced, w3
// compute-intensive). Reproduces Figure 3(b): read time and hit ratio.
func Fig3b(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	procs := 16
	fileSize := int64(4 << 20)
	req := int64(64 << 10)
	bursts := 4
	unit := 40 * time.Millisecond
	if opts.Quick {
		procs = 8
		fileSize = 2 << 20
		bursts = 3
		unit = 20 * time.Millisecond
	}
	sens := []struct {
		name      string
		threshold int
	}{
		{"high", placement.High},
		{"medium", placement.Medium},
		{"low", placement.Low},
	}
	classes := []workloads.BurstClass{
		workloads.W1DataIntensive, workloads.W2Balanced, workloads.W3ComputeIntensive,
	}

	var rows []Row
	for _, sv := range sens {
		for _, class := range classes {
			mean, series, err := Repeat(opts.Repeats, func() (RunResult, error) {
				env := NewEnv(OriginPFS, 1)
				apps := workloads.Burst(class, procs, fileSize, req, bursts, unit)
				if err := createAll(env, apps, fileSize); err != nil {
					return RunResult{}, err
				}
				sys, err := env.NewHFetch(HFetchOpts{
					SegmentSize: req,
					Tiers: []TierDef{
						{Name: "ram", Capacity: fileSize},
						{Name: "nvme", Capacity: 2 * fileSize},
						{Name: "bb", Capacity: 4 * fileSize},
					},
					UpdateThreshold: sv.threshold,
					Interval:        time.Second, // trigger (b) dominates
				})
				if err != nil {
					return RunResult{}, err
				}
				defer sys.Stop()
				return Run(sys, apps)
			})
			if err != nil {
				return nil, err
			}
			// The figure reports read time (the compute between bursts is
			// what the prefetcher hides) plus the hit ratio.
			rows = append(rows, Row{
				Figure:   "fig3b",
				Config:   fmt.Sprintf("%s/%s", sv.name, class),
				System:   "hfetch",
				Seconds:  mean.ReadTime.Seconds(),
				Variance: series.Variance(),
				HitRatio: mean.HitRatio,
				Extra:    map[string]float64{"wall_sec": mean.Elapsed.Seconds()},
			})
		}
	}
	return rows, nil
}

// createAll registers every file the apps reference with size.
func createAll(env *Env, apps []workloads.App, size int64) error {
	for _, f := range workloads.Files(apps) {
		if err := env.FS.Create(f, size); err != nil {
			return err
		}
	}
	return nil
}
