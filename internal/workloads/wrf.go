package workloads

import (
	"fmt"
	"time"
)

// WRFConfig scales the WRF workflow emulation (Figure 6b).
type WRFConfig struct {
	// Procs is the number of processes (strong scaling divides the same
	// total data across them).
	Procs int
	// TotalBytes is the total input data across all scales.
	TotalBytes int64
	// Req is the request size.
	Req int64
	// Steps is the number of simulation time steps (paper: 4).
	Steps int
	// Think is the model computation per step.
	Think time.Duration
	// Domains is the number of input domain files.
	Domains int
}

// WRF emulates the Weather Research and Forecasting workflow: an
// iterative multi-application pipeline with three distinct phases.
//
// Pre-processing (WPS: geogrid/ungrib/metgrid) reads the static domain
// inputs sequentially. The main model (wrf.exe) iterates: every
// simulation time step re-reads boundary/analysis data — observed and
// simulated data are analyzed many times until the model converges. The
// post-processing/visualization application reads the model's domain
// data once more to render it. Strong scaling: the same total data is
// divided across more processes.
//
// Process p works on domain p mod Domains, and a domain's whole Req blocks
// are split into contiguous slices, one per process of the domain and as
// even as division allows: every pass of every phase reads each block of a
// domain exactly once. With Procs a multiple of Domains and blocks that
// divide evenly, p's slice is the TotalBytes/Procs bytes at
// (p/Domains)·TotalBytes/Procs. A domain with more processes than blocks
// leaves some with nothing to read, and with fewer processes than domains
// the last domains go unread.
func WRF(cfg WRFConfig) []App {
	if cfg.Domains <= 0 {
		cfg.Domains = 4
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 4
	}
	blocks := cfg.TotalBytes / int64(cfg.Domains) / cfg.Req

	pre := App{Name: "wps"}
	model := App{Name: "wrf"}
	post := App{Name: "post"}

	for p := 0; p < cfg.Procs; p++ {
		d := p % cfg.Domains
		file := fmt.Sprintf("wrf/domain-%d", d)
		// Each process owns a slice of its domain file: the i-th of the
		// domain's n processes reads blocks [i·blocks/n, (i+1)·blocks/n).
		i, n := int64(p/cfg.Domains), int64((cfg.Procs-d+cfg.Domains-1)/cfg.Domains)
		sliceOff := i * blocks / n * cfg.Req
		perProc := (i+1)*blocks/n*cfg.Req - sliceOff

		// Pre-processing: one sequential pass over the slice.
		var s1 Script
		for off := int64(0); off+cfg.Req <= perProc; off += cfg.Req {
			s1 = append(s1, Access{File: file, Off: sliceOff + off, Len: cfg.Req, Think: 0})
		}
		pre.Procs = append(pre.Procs, s1)

		// Main model: Steps iterations re-reading the slice with
		// computation between iterations.
		var s2 Script
		for st := 0; st < cfg.Steps; st++ {
			first := true
			for off := int64(0); off+cfg.Req <= perProc; off += cfg.Req {
				a := Access{File: file, Off: sliceOff + off, Len: cfg.Req}
				if first {
					a.Think = cfg.Think
					first = false
				}
				s2 = append(s2, a)
			}
		}
		model.Procs = append(model.Procs, s2)

		// Post-processing/visualization: a final pass.
		var s3 Script
		for off := int64(0); off+cfg.Req <= perProc; off += cfg.Req {
			s3 = append(s3, Access{File: file, Off: sliceOff + off, Len: cfg.Req, Think: 0})
		}
		post.Procs = append(post.Procs, s3)
	}
	return []App{pre, model, post}
}

// WRFFiles returns the domain files the workflow needs, with sizes.
func WRFFiles(cfg WRFConfig) map[string]int64 {
	if cfg.Domains <= 0 {
		cfg.Domains = 4
	}
	out := make(map[string]int64, cfg.Domains)
	for i := 0; i < cfg.Domains; i++ {
		out[fmt.Sprintf("wrf/domain-%d", i)] = cfg.TotalBytes / int64(cfg.Domains)
	}
	return out
}
