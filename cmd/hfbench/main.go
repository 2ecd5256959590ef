// Command hfbench regenerates the paper's evaluation figures. Each
// figure prints one table row per bar/point of the original plot.
//
// Usage:
//
//	hfbench -fig 3a|3b|4a|4b|5|6a|6b|all [-quick] [-repeats N] [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hfetch/internal/harness"
)

var figures = map[string]func(harness.Opts) ([]harness.Row, error){
	"3a":        harness.Fig3a,
	"3b":        harness.Fig3b,
	"4a":        harness.Fig4a,
	"4b":        harness.Fig4b,
	"5":         harness.Fig5,
	"6a":        harness.Fig6a,
	"6b":        harness.Fig6b,
	"abl-place": harness.AblationPlacement,
	"abl-score": harness.AblationScoring,
	"abl-seg":   harness.AblationSegmentation,
	"abl-cache": harness.AblationCachePolicy,
	"ext-nodes": harness.ExtMultiNode,
}

var figureOrder = []string{"3a", "3b", "4a", "4b", "5", "6a", "6b", "abl-place", "abl-score", "abl-seg", "abl-cache", "ext-nodes"}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3a, 3b, 4a, 4b, 5, 6a, 6b, abl-place, abl-score, abl-seg, or all")
	quick := flag.Bool("quick", false, "shrink scales for a fast run")
	repeats := flag.Int("repeats", 0, "measured runs per point (default 3, paper uses 5)")
	csv := flag.Bool("csv", false, "emit CSV instead of the aligned table")
	flag.Parse()

	opts := harness.Opts{Repeats: *repeats, Quick: *quick}

	var names []string
	if *fig == "all" {
		names = figureOrder
	} else {
		for _, n := range strings.Split(*fig, ",") {
			if _, ok := figures[n]; !ok {
				fmt.Fprintf(os.Stderr, "hfbench: unknown figure %q (have %s)\n",
					n, strings.Join(figureOrder, ", "))
				os.Exit(2)
			}
			names = append(names, n)
		}
	}

	if *csv {
		fmt.Println("figure,config,system,seconds,variance,hit_ratio,extra")
	}
	for _, name := range names {
		if !*csv {
			fmt.Printf("== Figure %s ==\n", name)
		}
		rows, err := figures[name](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hfbench: figure %s: %v\n", name, err)
			os.Exit(1)
		}
		for _, r := range rows {
			if *csv {
				extra := ""
				for k, v := range r.Extra {
					extra += fmt.Sprintf("%s=%g;", k, v)
				}
				fmt.Printf("%s,%s,%s,%.4f,%.6f,%.4f,%s\n",
					r.Figure, r.Config, r.System, r.Seconds, r.Variance, r.HitRatio, extra)
			} else {
				fmt.Println(r)
			}
		}
		// What the figure's modeled device time cost on this host: a
		// clock coarser than the model shows as overshoot.
		if times := harness.DrainDeviceTimes(); !*csv {
			for _, d := range times {
				fmt.Println(d)
			}
		}
	}
}
