package hfetch

import (
	"fmt"
	"io"
	"time"

	"hfetch/internal/cluster"
	"hfetch/internal/comm"
	"hfetch/internal/config"
	"hfetch/internal/core/agent"
	"hfetch/internal/core/placement"
	"hfetch/internal/core/score"
	"hfetch/internal/core/server"
	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// TierSpec describes one tier of the deep memory and storage hierarchy.
type TierSpec struct {
	// Name identifies the tier ("ram", "nvme", "bb", ...).
	Name string
	// Capacity is the prefetching cache capacity in bytes. For shared
	// tiers this is the total across the cluster; for local tiers it is
	// per node.
	Capacity int64
	// Latency and Bandwidth model the device; Channels is its internal
	// parallelism.
	Latency   time.Duration
	Bandwidth float64 // bytes per second
	Channels  int
	// Shared marks a tier backed by one cluster-wide store (burst
	// buffers) instead of per-node stores (RAM, NVMe).
	Shared bool
}

// PFSSpec models the remote parallel file system.
type PFSSpec struct {
	Latency   time.Duration
	Bandwidth float64 // bytes per second, per server channel
	Servers   int     // number of storage servers (device channels)
}

// Config configures a Cluster.
type Config struct {
	// Nodes is the number of compute nodes (HFetch servers). Default 1.
	Nodes int
	// SegmentSize is the prefetching grain in bytes (default 1 MiB).
	SegmentSize int64
	// DecayBase is p of Equation (1), ≥ 2 (default 2).
	DecayBase float64
	// DecayUnit is one decay time step (default 1s).
	DecayUnit time.Duration
	// SeqBoost is the sequencing readahead weight (default 0.5; negative
	// disables).
	SeqBoost float64
	// HeatDir enables heatmap persistence when non-empty.
	HeatDir string
	// Deprecated: DaemonThreads is read by nothing; EventShards sizes the
	// daemon pool.
	DaemonThreads int
	// EventShards sizes the hardware monitor per server: events hash by
	// file onto that many independent rings, each drained by its own
	// daemon, which preserves per-file event order. 1 is the paper's
	// single event queue. Default 8.
	EventShards int
	// Deprecated: WorkersPerShard is read by nothing; a ring has one daemon.
	WorkersPerShard int
	// DropEvents selects the queue overflow policy: false (default)
	// blocks producers, true drops events when the target ring is full.
	DropEvents bool
	// EngineThreads is the placement engine's thread count per server:
	// the cap on its mover's concurrent PFS fetch streams (default 2).
	EngineThreads int
	// EngineInterval is placement trigger (a) (default 1s).
	EngineInterval time.Duration
	// EngineUpdateThreshold is placement trigger (b); use
	// ReactivenessHigh/Medium/Low (default Medium = 100).
	EngineUpdateThreshold int
	// Deprecated: AsyncMover is read by nothing; placement always hands
	// its moves to the mover pipeline.
	AsyncMover bool
	// Deprecated: MoverQueueDepth is read by nothing; each per-tier mover
	// queue holds 256 moves.
	MoverQueueDepth int
	// Deprecated: FetchCoalesce is read by nothing; the mover always
	// merges adjacent queued PFS fetches of one file into one origin read.
	FetchCoalesce bool
	// FetchWait bounds how long a missing read waits for an in-flight
	// mover fetch of the same segment before falling back to the PFS
	// (zero disables).
	FetchWait time.Duration
	// TimeScale multiplies all modeled device times (default 1).
	TimeScale float64
	// EnableTelemetry gives every node its own metric registry
	// (per-tier read/movement histograms, queue depth, pipeline stage
	// timings; see Node.Telemetry and Cluster.TelemetrySnapshot). Off by
	// default: the instrumentation then costs ~nothing on the read path.
	EnableTelemetry bool
	// EnableLifecycle attaches the causal segment tracer and the
	// prefetch-effectiveness ledger to each node's registry (requires
	// EnableTelemetry). Every prefetch is then classified
	// timely/late/wasted/redundant, and whole-lifecycle traces are kept in
	// a fixed-memory flight recorder (export with hfetchctl trace).
	EnableLifecycle bool
	// LifecycleSampleEvery samples one event-rooted trace in every N
	// access events (default telemetry.DefaultLifecycleSampleEvery; 1
	// traces everything — tests and debugging only).
	LifecycleSampleEvery int
	// TimeSampleEvery sets how often hot-path latency observations read
	// the clock: one in every N operations (default
	// telemetry.DefaultTimeSampleEvery; 1 times everything). Counters are
	// never sampled.
	TimeSampleEvery int
	// Gateway tunes the per-node HTTP range-read gateway obtained from
	// Node.GatewayHandler. The zero value uses the gateway's defaults
	// (no tenant rate limit). Its requests are access events like agent
	// reads, so the auditor hints ahead of sequential HTTP readers too.
	Gateway GatewaySpec
	// Tiers lists the hierarchy fastest-first. Defaults to
	// DefaultTiers() when empty.
	Tiers []TierSpec
	// PFS models the origin file system.
	PFS PFSSpec
	// Deprecated: ClusterFabric is read by nothing; every cluster of more
	// than one node runs the fabric.
	ClusterFabric bool
	// ClusterHeartbeat is the fabric's heartbeat interval (default
	// cluster.DefaultHeartbeat, as a daemon's; suspect and dead
	// thresholds scale from it).
	ClusterHeartbeat time.Duration
	// ClusterTransport selects how the nodes of a cluster of more than one
	// talk: "" or "inproc" (emulated in-process network) or "tcp" (real
	// framed TCP on loopback — the same transport cmd/hfetchd deploys, so
	// benchmarks and smoke tests exercise true serialization and socket
	// costs).
	ClusterTransport string
}

// GatewaySpec tunes a node's HTTP range-read gateway (the serving
// surface cmd/hfetchd exposes as GET /files/{path}; see GATEWAY.md).
// Zero fields select the gateway's built-in defaults.
type GatewaySpec struct {
	// MaxInflight caps concurrently served requests (default 256).
	MaxInflight int
	// ClientInflight caps concurrent requests per client IP (default 64).
	ClientInflight int
	// TenantRPS is the per-tenant token-bucket admission rate in
	// requests per second; 0 disables tenant rate limiting.
	TenantRPS float64
	// TenantBurst is the bucket depth (default 2×TenantRPS).
	TenantBurst float64
	// AdmitWait bounds the over-rate pacing wait before a request is
	// shed with 429 + Retry-After (default 10ms).
	AdmitWait time.Duration
	// Deprecated: StreamDetect is read by nothing; the auditor detects
	// the streams of gateway readers as it does those of agent readers.
	StreamDetect bool
	// Deprecated: StreamLookahead is read by nothing; the auditor's
	// stream window sets how far ahead a stream is hinted.
	StreamLookahead int
}

// Reactiveness presets for Config.EngineUpdateThreshold (paper Fig 3b).
const (
	ReactivenessHigh   = placement.High
	ReactivenessMedium = placement.Medium
	ReactivenessLow    = placement.Low
)

// DefaultTiers returns the paper's three-level prefetching cache: RAM,
// node-local NVMe, and shared burst buffers, with the given capacities.
func DefaultTiers(ram, nvme, bb int64) []TierSpec {
	return []TierSpec{
		{Name: "ram", Capacity: ram, Latency: devsim.RAMProfile.Latency,
			Bandwidth: devsim.RAMProfile.BytesPerSec, Channels: devsim.RAMProfile.Channels},
		{Name: "nvme", Capacity: nvme, Latency: devsim.NVMeProfile.Latency,
			Bandwidth: devsim.NVMeProfile.BytesPerSec, Channels: devsim.NVMeProfile.Channels},
		{Name: "bb", Capacity: bb, Latency: devsim.BurstBufferProfile.Latency,
			Bandwidth: devsim.BurstBufferProfile.BytesPerSec, Channels: devsim.BurstBufferProfile.Channels, Shared: true},
	}
}

// DefaultConfig returns the configuration cmd/hfetchd ships
// (config.Default() through FromConfig) on a single node with 64 MiB of
// total prefetching cache split 8/24/32 across RAM/NVMe/burst buffers.
func DefaultConfig() Config {
	cfg := FromConfig(config.Default())
	cfg.Tiers = DefaultTiers(8<<20, 24<<20, 32<<20)
	return cfg
}

// FromConfig translates the daemon's JSON configuration into a one-node
// Config: the file's tiers and PFS, its scoring parameters, its pipeline
// (event rings, engine triggers and threads, mover, gateway) and the
// sizing and sampling of its telemetry.
// It is the only translation there is, so what the library, the paper's
// figures and the daemon run can differ only where a caller says so.
func FromConfig(d config.Config) Config {
	cfg := Config{
		Nodes:                 1,
		SegmentSize:           d.SegmentSize,
		DecayBase:             d.DecayBase,
		DecayUnit:             d.DecayUnit(),
		SeqBoost:              d.SeqBoost,
		HeatDir:               d.HeatDir,
		EventShards:           d.EventShards,
		DropEvents:            d.DropEvents(),
		EngineThreads:         d.EngineWorkers,
		EngineInterval:        d.EngineInterval(),
		EngineUpdateThreshold: d.EngineUpdateThreshold,
		FetchWait:             d.FetchWait(),
		TimeScale:             d.TimeScale,
		LifecycleSampleEvery:  d.LifecycleSampleEvery,
		TimeSampleEvery:       d.TimeSampleEvery,
		Gateway: GatewaySpec{
			MaxInflight:    d.GatewayMaxInflight,
			ClientInflight: d.GatewayClientInflight,
			TenantRPS:      d.TenantRPS,
			TenantBurst:    d.TenantBurst,
			AdmitWait:      d.GatewayWait(),
		},
		PFS: PFSSpec{
			Latency:   microseconds(d.PFS.LatencyUS),
			Bandwidth: d.PFS.BandwidthMBps * 1e6,
			Servers:   d.PFS.Servers,
		},
	}
	for _, t := range d.Tiers {
		cfg.Tiers = append(cfg.Tiers, TierSpec{
			Name: t.Name, Capacity: t.CapacityBytes, Latency: microseconds(t.LatencyUS),
			Bandwidth: t.BandwidthMBps * 1e6, Channels: t.Channels, Shared: t.Shared,
		})
	}
	return cfg
}

func microseconds(us float64) time.Duration {
	return time.Duration(us * float64(time.Microsecond))
}

// ServerConfig is the part of cfg one node's server is built from: its
// scoring parameters and its event → placement → mover pipeline. The
// caller adds what belongs to the deployment (shared tiers, telemetry).
func (cfg Config) ServerConfig(node string) server.Config {
	sc := server.Config{
		Node:        node,
		SegmentSize: cfg.SegmentSize,
		Score:       score.Params{P: cfg.DecayBase, Unit: cfg.DecayUnit},
		SeqBoost:    cfg.SeqBoost,
		HeatDir:     cfg.HeatDir,
		FetchWait:   cfg.FetchWait,
		Engine: placement.Config{
			Interval:        cfg.EngineInterval,
			UpdateThreshold: cfg.EngineUpdateThreshold,
			Workers:         cfg.EngineThreads,
		},
	}
	sc.Monitor.Shards = cfg.EventShards
	sc.Monitor.Drop = cfg.DropEvents
	return sc
}

// Cluster is an emulated multi-node HFetch deployment sharing one PFS
// and one distributed hashmap.
type Cluster struct {
	fs    *pfs.FS
	net   *comm.InprocNetwork
	nodes []*Node
	// shared are the tiers every node's hierarchy holds one instance of:
	// no server owns them, so Stop clears them.
	shared map[string]*tiers.Store
}

// NewCluster builds and starts a cluster. Each node is assembled as
// NewNode assembles the daemon's; the cluster passes in only what an
// emulated deployment shares or fixes: one PFS, the shared tiers' stores,
// and, with more than one node, the fabric: the peer network (in process,
// or TCP on loopback) with its roster, and the heartbeat.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if len(cfg.Tiers) == 0 {
		cfg.Tiers = DefaultTiers(8<<20, 24<<20, 32<<20)
	}
	c := &Cluster{fs: newPFS(cfg), net: comm.NewInprocNetwork(nil), shared: make(map[string]*tiers.Store)}
	// Shared tiers are single store+device instances used by all nodes.
	for _, ts := range cfg.Tiers {
		if ts.Shared {
			c.shared[ts.Name] = newStore(ts, cfg.TimeScale)
		}
	}
	names := make([]string, cfg.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	specs := make([]nodeSpec, cfg.Nodes)
	for i := range specs {
		specs[i] = nodeSpec{name: names[i], fs: c.fs, shared: c.shared, watchdog: &telemetry.WatchdogConfig{}}
	}
	// fail stops the nodes built so far and closes the listeners of those
	// not yet built.
	fail := func(err error) (*Cluster, error) {
		c.Stop()
		for _, s := range specs[len(c.nodes):] {
			if s.tcp != nil {
				s.tcp.Close()
			}
		}
		return nil, err
	}
	if cfg.Nodes > 1 {
		// Unlike a daemon, which starts as a roster of one and grows as it
		// hears its seeds, every node here boots with the full roster (and,
		// over TCP, every peer's bound address): a cluster built in one
		// call skips the discovery churn and the rebalances it would
		// trigger.
		useTCP := cfg.ClusterTransport == "tcp"
		book := make(map[string]string, cfg.Nodes)
		for i := range specs {
			s := &specs[i]
			s.mux, s.roster = comm.NewMux(), names
			addr := s.name // the in-process network addresses peers by node name
			if useTCP {
				tcp, err := comm.ListenTCP("127.0.0.1:0", s.mux)
				if err != nil {
					return fail(err)
				}
				s.tcp, s.timeout, addr = tcp, config.Config{}.PeerRequestTimeout(), tcp.Addr()
			} else {
				s.net = c.net
			}
			book[s.name] = addr
			s.fabric = &cluster.Config{Self: s.name, Addr: addr, Ops: addr, Static: book,
				HeartbeatInterval: cfg.ClusterHeartbeat}
		}
	}
	for _, s := range specs {
		if s.net != nil {
			c.net.Join(s.name, s.mux)
		}
		n, err := assemble(cfg, s)
		if err != nil {
			return fail(err)
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Stop shuts down every node. Each server clears its own tiers as it
// stops; the shared tiers are the cluster's and go last, once, when no
// node's mover can land in them any more.
func (c *Cluster) Stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
	for _, st := range c.shared {
		st.Clear()
	}
}

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns the i-th node.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// KillNode simulates node i crashing: it is torn off the in-process
// network (peers' requests to it start failing) and stopped, which clears
// its own tiers and closes its peer listener (the shared tiers live on
// with the survivors). The survivors age it to suspect, then dead, and
// rebalance the hashmaps around it; reads that mapped to its tiers
// degrade to PFS passthrough.
func (c *Cluster) KillNode(i int) {
	n := c.nodes[i]
	c.net.Leave(n.name)
	n.Stop()
}

// ClusterNode exposes node i's fabric agent (nil in a one-node cluster).
func (c *Cluster) ClusterNode(i int) *cluster.Node { return c.nodes[i].cn }

// CreateFile registers a synthetic file of the given size in the PFS.
func (c *Cluster) CreateFile(name string, size int64) error {
	return c.fs.Create(name, size)
}

// FS exposes the emulated parallel file system.
func (c *Cluster) FS() *pfs.FS { return c.fs }

// TelemetrySnapshot merges every node's metric registry into one
// cluster-wide snapshot (counters and histograms sum; rendering it with
// WriteText gives the aggregate Prometheus view). ok is false when
// EnableTelemetry was not set.
func (c *Cluster) TelemetrySnapshot() (telemetry.Snapshot, bool) {
	var out telemetry.Snapshot
	any := false
	for _, n := range c.nodes {
		if reg := n.srv.Telemetry(); reg != nil {
			out.Merge(reg.Snapshot())
			any = true
		}
	}
	return out, any
}

// FleetTrace writes the fleet-merged Perfetto trace: every node's
// lifecycle records on its own process lane, so a segment whose
// lifecycle crossed nodes (event on one, fetch served by another) shows
// its spans side by side under one trace ID. Requires EnableLifecycle;
// with it off the export is empty but valid.
func (c *Cluster) FleetTrace(w io.Writer) error {
	lanes := make([]telemetry.NodeTraces, 0, len(c.nodes))
	for _, n := range c.nodes {
		if lc := n.srv.Telemetry().Lifecycle(); lc != nil {
			lanes = append(lanes, telemetry.NodeTraces{Node: n.name, Recs: lc.Export()})
		}
	}
	return telemetry.WriteFleetTraceJSON(w, lanes)
}

// Client is an application's connection to HFetch (the agent).
type Client struct {
	agent *agent.Agent
}

// Open opens a file for reading and begins its prefetching epoch.
func (c *Client) Open(name string) (*File, error) {
	f, err := c.agent.Open(name)
	if err != nil {
		return nil, err
	}
	return &File{f}, nil
}

// Stats returns the client's I/O statistics (hits, misses, per-tier).
func (c *Client) Stats() *telemetry.ReadStats { return c.agent.Stats() }

// File is an open file handle; reads are transparently served from the
// hierarchy.
type File struct {
	*agent.File
}
