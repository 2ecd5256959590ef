// Command benchmark is the repository's benchmark: six named workloads,
// each measured end to end with tracing off and layer by layer with
// tracing on, from outside the packages it measures. README.md says how to
// run it and what every number means; BENCHMARK.json at the repository
// root names the command, the workloads and the metrics with their units,
// directions and regression bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// childLimit is the parent's hard wall-clock limit on one child run; a
// child still alive then is killed.
const childLimit = 170 * time.Second

func main() {
	var o options
	var trace int
	var check, child bool
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all six)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generator")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the untraced timed window; the traced window is a quarter of it")
	flag.IntVar(&trace, "trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default both")
	flag.IntVar(&o.setups, "setups", 3, "times the workload is set up in one run; setup_s is the median")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for traces, goroutine dumps and results.json")
	flag.BoolVar(&check, "check", false, "run every workload at 1/50 scale and fail on any broken measurement")
	flag.BoolVar(&child, "child", false, "internal: perform one run in this process and print its result")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.setups < 1 || trace < -1 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}

	if child {
		wl, ok := findWorkload(o.workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", o.workload))
		}
		o.traced = trace == 1
		res, err := measure(wl, o)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, wl := range allWorkloads {
			names = append(names, wl.name)
		}
	} else if _, ok := findWorkload(o.workload); !ok {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	modes := []bool{false, true}
	if trace >= 0 {
		modes = []bool{trace == 1}
	}
	if check {
		// One traced run per workload reports both metric lists. Its
		// window is 1/50 of the untraced one's.
		modes = []bool{true}
		o.seconds = o.seconds / 50 / tracedShare
		o.setups = 1
	}

	var results []*result
	for _, traced := range modes {
		for _, name := range names {
			o.workload, o.traced = name, traced
			res, err := runChild(o)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			report(res)
			results = append(results, res)
		}
	}
	if err := writeJSON(filepath.Join(o.out, "results.json"), results); err != nil {
		fatal(err)
	}

	if check {
		for _, r := range results {
			if _, err := contractLine(r); err != nil {
				fatal(fmt.Errorf("check: %s: %w", r.Workload, err))
			}
			if !r.Correct {
				fatal(fmt.Errorf("check: %s: %d of %d ops failed; %v", r.Workload, r.Failed, r.Attempted, r.Notes))
			}
		}
	}
	// The last line of standard output is the result of the last run, in
	// the form BENCHMARK.json's driver reads.
	last := results[len(results)-1]
	line, err := contractLine(last)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", last.Workload, err))
	}
	fmt.Println(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runChild performs one run in a child process: the slab, the copy counter
// and the garbage collector are process-wide, so no run inherits another's.
func runChild(o options) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childLimit)
	defer cancel()
	trace := "0"
	if o.traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", o.workload, "-trace", trace,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-setups", strconv.Itoa(o.setups), "-out", o.out)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = time.Second
	raw, err := cmd.Output()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("killed after %v", childLimit)
	}
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &res, nil
}

// contractLine renders a result as the one JSON object the driver reads:
// the end-to-end metrics of an untraced run or the per-layer metrics of a
// traced one. Either way both of the run's lists must be complete.
func contractLine(r *result) (string, error) {
	m, err := fill(endToEnd, r.Window)
	if err != nil {
		return "", err
	}
	if r.Traced {
		if m, err = fill(perLayer, r.PerLayer); err != nil {
			return "", err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m})
	return string(line), err
}

// report prints every metric of a run by name, with its unit.
func report(r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s (%s, seed %d, %.3g s window, nproc %d, GOMAXPROCS %d, %s, rev %s)\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Rev)
	fmt.Printf("   correct %v, attempted %d, failed %d, latency samples %d\n", r.Correct, r.Attempted, r.Failed, r.Samples)
	for _, n := range r.Notes {
		fmt.Printf("   ! %s\n", n)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), timings...) {
		fmt.Printf("   %-38s %16.6g %s\n", d.name, r.Window[d.name], d.unit)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   (%s %.6g)\n", k, r.Info[k])
	}
	if !r.Traced {
		return
	}
	for _, d := range perLayer {
		fmt.Printf("   %-38s %16.6g %s\n", d.name, r.PerLayer[d.name], d.unit)
	}
	if len(r.Budget) > 0 {
		var sum float64
		fmt.Printf("   latency budget of op_p50_us = %.6g us:\n", r.Window["op_p50_us"])
		for _, b := range r.Budget {
			fmt.Printf("     %-52s %12.4f us\n", b.Name, b.US)
			sum += b.US
		}
		fmt.Printf("     %-52s %12.4f us\n", "sum", sum)
	}
	fmt.Printf("   spans (self time is a span's time less its children's):\n")
	for _, s := range r.Spans {
		fmt.Printf("     %-28s n %8d  total %10.3f ms  self %10.3f ms  median %9d ns\n", s.Name, s.Count, s.TotalMS, s.SelfMS, s.MedianTotalNS)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
