package harness

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hfetch"
	"hfetch/internal/baselines"
	"hfetch/internal/core/server"
	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

// Env is one experiment's emulated machine: an origin file system (the
// PFS — or the burst buffers, for workflows whose data is staged there)
// plus factories for the systems under test, all sharing the same device
// time scale.
type Env struct {
	FS    *pfs.FS
	Scale float64
}

// OriginKind selects where the workload's data initially resides.
type OriginKind int

// Origin kinds.
const (
	// OriginPFS is the remote parallel file system.
	OriginPFS OriginKind = iota
	// OriginBB models data staged into the burst buffers (Figure 6).
	OriginBB
)

// NewEnv creates an environment. scale multiplies every modeled device
// time (smaller = faster experiments, identical shapes).
func NewEnv(origin OriginKind, scale float64) *Env {
	prof := devsim.PFSProfile
	if origin == OriginBB {
		prof = devsim.BurstBufferProfile
		prof.Name = "bb-origin"
		prof.Channels = 8
	}
	return &Env{FS: pfs.New(track(devsim.New(prof, scale))), Scale: scale}
}

// CreateFiles registers the workload's files.
func (e *Env) CreateFiles(files map[string]int64) error {
	for name, size := range files {
		if err := e.FS.Create(name, size); err != nil {
			return err
		}
	}
	return nil
}

// TierDef sizes one HFetch tier.
type TierDef struct {
	Name     string
	Capacity int64
}

// HFetchOpts is what an experiment sets on the HFetch instance it
// builds: its grain, its tiers and, where the figure is about them or the
// emulation's event rate needs it, the two engine triggers. Everything
// else is hfetch.DefaultConfig(), the pipeline cmd/hfetchd ships.
type HFetchOpts struct {
	SegmentSize     int64
	Tiers           []TierDef
	UpdateThreshold int
	Interval        time.Duration
}

// NewHFetch builds and starts a single-node HFetch system over the
// environment's origin.
func (e *Env) NewHFetch(opts HFetchOpts) (*baselines.HFetch, error) {
	if len(opts.Tiers) == 0 {
		return nil, fmt.Errorf("harness: HFetch needs at least one tier")
	}
	var stores []*tiers.Store
	for _, td := range opts.Tiers {
		prof, ok := tierProfiles[td.Name]
		if !ok {
			return nil, fmt.Errorf("harness: unknown tier %q", td.Name)
		}
		stores = append(stores, tiers.NewStore(td.Name, td.Capacity, track(devsim.New(prof, e.Scale))))
	}
	cfg := hfetch.DefaultConfig()
	cfg.SegmentSize = opts.SegmentSize
	if opts.UpdateThreshold > 0 {
		cfg.EngineUpdateThreshold = opts.UpdateThreshold
	}
	if opts.Interval > 0 {
		cfg.EngineInterval = opts.Interval
	}
	return startHFetch(cfg.ServerConfig("node0"), e.FS, tiers.NewHierarchy(stores...))
}

// startHFetch starts a standalone server built from the shared defaults.
func startHFetch(cfg server.Config, fs *pfs.FS, hier *tiers.Hierarchy) (*baselines.HFetch, error) {
	stats, maps := server.NewLocalMaps(cfg.Node)
	srv, err := server.New(cfg, fs, hier, stats, maps)
	if err != nil {
		return nil, err
	}
	srv.Start()
	return baselines.NewHFetch(srv, true), nil
}

var tierProfiles = map[string]devsim.Profile{
	"ram":  devsim.RAMProfile,
	"nvme": devsim.NVMeProfile,
	"bb":   devsim.BurstBufferProfile,
}

// RAMDevice returns a RAM-cache device model for the comparators.
func (e *Env) RAMDevice() *devsim.Device {
	return track(devsim.New(devsim.RAMProfile, e.Scale))
}

// tracked holds every modeled device the experiments have built since the
// last DrainDeviceTimes, so that a figure's table can be followed by what
// its device time cost on the host it ran on.
var tracked struct {
	mu   sync.Mutex
	devs []*devsim.Device
}

func track(d *devsim.Device) *devsim.Device {
	tracked.mu.Lock()
	tracked.devs = append(tracked.devs, d)
	tracked.mu.Unlock()
	return d
}

// DeviceTime is the time of every device of one name: Busy as modeled,
// Blocked as callers measured it (queueing included), Overshoot the part
// of Blocked past the modeled completions, which is the host's error.
type DeviceTime struct {
	Name                     string
	Ops                      int64
	Busy, Blocked, Overshoot time.Duration
}

func (d DeviceTime) String() string {
	return fmt.Sprintf("device   %-10s %8d ops  busy %9.3fs  blocked %9.3fs  overshoot %8.3fs",
		d.Name, d.Ops, d.Busy.Seconds(), d.Blocked.Seconds(), d.Overshoot.Seconds())
}

// DrainDeviceTimes totals, by device name, the devices built since the
// last call, and forgets them.
func DrainDeviceTimes() []DeviceTime {
	tracked.mu.Lock()
	devs := tracked.devs
	tracked.devs = nil
	tracked.mu.Unlock()
	index := map[string]int{} // device name -> position in out, in order of first use
	seen := map[*devsim.Device]bool{}
	var out []DeviceTime
	for _, d := range devs {
		if d == nil || seen[d] { // an unmodeled store; a tier shared between nodes
			continue
		}
		seen[d] = true
		ops, _, busy := d.Stats()
		if ops == 0 {
			continue
		}
		i, ok := index[d.Name()]
		if !ok {
			i = len(out)
			index[d.Name()] = i
			out = append(out, DeviceTime{Name: d.Name()})
		}
		blocked, overshoot := d.Waited()
		out[i].Ops += ops
		out[i].Busy += busy
		out[i].Blocked += blocked
		out[i].Overshoot += overshoot
	}
	return out
}

// Row is one output line of an experiment table, mirroring a bar or
// point in the paper's figure.
type Row struct {
	Figure string
	// Config identifies the x-axis position (workload, pattern, scale).
	Config string
	// System is the solution measured.
	System string
	// Seconds is the end-to-end time; Variance its across-repeat spread.
	Seconds  float64
	Variance float64
	// HitRatio is hits/(hits+misses) where applicable.
	HitRatio float64
	// Extra holds figure-specific values (events/sec, profile cost...).
	Extra map[string]float64
}

// String renders the row for the CLI.
func (r Row) String() string {
	s := fmt.Sprintf("%-8s %-22s %-14s %8.3fs", r.Figure, r.Config, r.System, r.Seconds)
	if r.HitRatio > 0 {
		s += fmt.Sprintf("  hit=%5.1f%%", r.HitRatio*100)
	}
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s += fmt.Sprintf("  %s=%.1f", k, r.Extra[k])
	}
	return s
}

// Opts controls experiment sizing.
type Opts struct {
	// Repeats is the number of measured runs per point (paper: 5).
	Repeats int
	// Quick shrinks scales for CI/bench runs.
	Quick bool
}

func (o Opts) normalized() Opts {
	if o.Repeats <= 0 {
		if o.Quick {
			o.Repeats = 1
		} else {
			o.Repeats = 3
		}
	}
	return o
}
