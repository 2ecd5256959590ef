// Package harness drives the paper's experiments: it executes workload
// scripts against a System (HFetch or a comparator), measures end-to-end
// time and hit ratios, and regenerates every figure of the evaluation
// section as a table of rows. cmd/hfbench and the repository benchmarks
// are thin wrappers around this package.
package harness

import (
	"fmt"
	"sync"
	"time"

	"hfetch/internal/baselines"
	"hfetch/internal/workloads"
)

// RunResult is one measured execution of a workload on a system.
type RunResult struct {
	Elapsed  time.Duration
	Hits     int64
	Misses   int64
	HitRatio float64
	ReadTime time.Duration
}

// Run executes all apps concurrently (one goroutine per process) against
// sys and returns the end-to-end measurement.
func Run(sys baselines.System, apps []workloads.App) (RunResult, error) {
	return run(sys, [][]workloads.App{apps})
}

// RunPhases executes each phase's apps concurrently, phases one after
// another (a workflow pipeline), accumulating one measurement.
func RunPhases(sys baselines.System, phases [][]workloads.App) (RunResult, error) {
	return run(sys, phases)
}

func run(sys baselines.System, phases [][]workloads.App) (RunResult, error) {
	before := sys.Stats().Snapshot()
	start := time.Now()
	for _, apps := range phases {
		var wg sync.WaitGroup
		errCh := make(chan error, 16)
		for _, app := range apps {
			for _, script := range app.Procs {
				wg.Add(1)
				go func(app string, script workloads.Script) {
					defer wg.Done()
					if err := runProc(sys, app, script); err != nil {
						select {
						case errCh <- err:
						default:
						}
					}
				}(app.Name, script)
			}
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return RunResult{}, err
		}
	}
	elapsed := time.Since(start)
	after := sys.Stats().Snapshot()
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	res := RunResult{
		Elapsed:  elapsed,
		Hits:     hits,
		Misses:   misses,
		ReadTime: time.Duration(after.ReadNanos - before.ReadNanos),
	}
	if hits+misses > 0 {
		res.HitRatio = float64(hits) / float64(hits+misses)
	}
	return res, nil
}

// runProc executes one process script: handles are opened lazily per
// file and closed when the script ends.
func runProc(sys baselines.System, app string, script workloads.Script) error {
	handles := make(map[string]baselines.Handle)
	defer func() {
		for _, h := range handles {
			h.Close()
		}
	}()
	var buf []byte
	for _, acc := range script {
		if acc.Think > 0 {
			time.Sleep(acc.Think)
		}
		h, ok := handles[acc.File]
		if !ok {
			var err error
			h, err = sys.Open(app, acc.File)
			if err != nil {
				return fmt.Errorf("harness: open %q: %w", acc.File, err)
			}
			handles[acc.File] = h
		}
		if int64(len(buf)) < acc.Len {
			buf = make([]byte, acc.Len)
		}
		if _, err := h.ReadAt(buf[:acc.Len], acc.Off); err != nil {
			return fmt.Errorf("harness: read %q@%d: %w", acc.File, acc.Off, err)
		}
	}
	return nil
}

// Repeat runs fn n times and aggregates the elapsed-seconds series plus
// the last run's result (the paper reports averages of five runs).
func Repeat(n int, fn func() (RunResult, error)) (mean RunResult, series Series, err error) {
	if n < 1 {
		n = 1
	}
	var last RunResult
	var hitSum float64
	for i := 0; i < n; i++ {
		last, err = fn()
		if err != nil {
			return RunResult{}, nil, err
		}
		series = append(series, last.Elapsed.Seconds())
		hitSum += last.HitRatio
	}
	mean = last
	mean.Elapsed = time.Duration(series.Mean() * float64(time.Second))
	mean.HitRatio = hitSum / float64(n)
	return mean, series, nil
}

// Series accumulates repeated measurements and reports mean/variance,
// matching the paper's "average along with the variance over five runs".
type Series []float64

// Mean returns the arithmetic mean (0 when empty).
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// Variance returns the population variance (0 when fewer than 2 values).
func (s Series) Variance() float64 {
	if len(s) < 2 {
		return 0
	}
	m := s.Mean()
	var t float64
	for _, v := range s {
		t += (v - m) * (v - m)
	}
	return t / float64(len(s))
}
