package hfetch

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"hfetch/internal/cluster"
	"hfetch/internal/comm"
	"hfetch/internal/config"
	"hfetch/internal/core/agent"
	"hfetch/internal/core/placement"
	"hfetch/internal/core/score"
	"hfetch/internal/core/server"
	"hfetch/internal/devsim"
	"hfetch/internal/dhm"
	"hfetch/internal/gateway"
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
	// MoverConcurrency is the mover's per-tier worker count, fastest tier
	// first (missing entries use max(2, 8>>tier)).
	MoverConcurrency []int
	// MoverQueueDepth bounds each per-tier mover queue (default 256).
	MoverQueueDepth int
	// FetchCoalesce merges adjacent queued PFS fetches of one file into
	// a single origin read.
	FetchCoalesce bool
	// FetchWait bounds how long a missing read waits for an in-flight
	// mover fetch of the same segment before falling back to the PFS
	// (zero disables).
	FetchWait time.Duration
	// EnableML turns on the learned-scoring extension: an online
	// logistic model (trained from the cluster's own re-access history)
	// scales Equation (1) scores by the predicted re-access probability.
	EnableML bool
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
	// LifecycleRing is the completed-trace flight-recorder size (default
	// telemetry.DefaultLifecycleRing).
	LifecycleRing int
	// LifecycleSampleEvery samples one event-rooted trace in every N
	// access events (default telemetry.DefaultLifecycleSampleEvery; 1
	// traces everything — tests and debugging only).
	LifecycleSampleEvery int
	// LifecycleMaxActive caps in-flight traces (default
	// telemetry.DefaultLifecycleMaxActive).
	LifecycleMaxActive int
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
	// ClusterFabric runs the real multi-node fabric (internal/cluster)
	// over the emulated in-process network: heartbeat membership,
	// view-change hashmap rebalancing, node-aware update routing, and
	// the guarded cross-node fetch path. Off by default — the nodes
	// are then wired statically — and effective only when Nodes > 1.
	// Killed nodes (Cluster.KillNode) are then detected by the
	// survivors, which rebalance around them.
	ClusterFabric bool
	// ClusterHeartbeat is the fabric's heartbeat interval (default 50ms;
	// suspect and dead thresholds scale from it).
	ClusterHeartbeat time.Duration
	// ClusterTransport selects how fabric peers talk: "" or "inproc"
	// (emulated in-process network) or "tcp" (real framed TCP on
	// loopback — the same transport cmd/hfetchd deploys, so benchmarks
	// and smoke tests exercise true serialization and socket costs).
	// Only meaningful with ClusterFabric.
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
// Config: the file's tiers and PFS, its scoring parameters and its
// pipeline (event rings, engine triggers and threads, mover, gateway).
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
		MoverConcurrency:      d.MoverConcurrency,
		MoverQueueDepth:       d.MoverQueueDepth,
		FetchCoalesce:         d.FetchCoalesce,
		FetchWait:             d.FetchWait(),
		TimeScale:             d.TimeScale,
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
			Interval:         cfg.EngineInterval,
			UpdateThreshold:  cfg.EngineUpdateThreshold,
			Workers:          cfg.EngineThreads,
			MoverConcurrency: cfg.MoverConcurrency,
			MoverQueueDepth:  cfg.MoverQueueDepth,
			FetchCoalesce:    cfg.FetchCoalesce,
		},
	}
	sc.Monitor.Shards = cfg.EventShards
	sc.Monitor.Drop = cfg.DropEvents
	return sc
}

// Config is the spec as the gateway package takes it, instrumented
// through reg (nil: not at all).
func (g GatewaySpec) Config(reg *telemetry.Registry) gateway.Config {
	return gateway.Config{
		MaxInflight:    g.MaxInflight,
		ClientInflight: g.ClientInflight,
		TenantRPS:      g.TenantRPS,
		TenantBurst:    g.TenantBurst,
		AdmitWait:      g.AdmitWait,
		Telemetry:      reg,
	}
}

// Cluster is an emulated multi-node HFetch deployment sharing one PFS
// and one distributed hashmap.
type Cluster struct {
	cfg     Config
	fs      *pfs.FS
	net     *comm.InprocNetwork
	nodes   []*Node
	learner *score.Learned
	// shared are the tiers every node's hierarchy holds one instance of:
	// no server owns them, so Stop clears them.
	shared map[string]*tiers.Store
}

// Node is one compute node: an HFetch server plus its tier hierarchy.
type Node struct {
	name string
	srv  *server.Server
	cn   *cluster.Node   // fabric membership; nil unless ClusterFabric
	tcp  *comm.TCPServer // peer listener; nil unless ClusterTransport "tcp"

	gwSpec GatewaySpec
	gwOnce sync.Once
	gw     *gateway.Gateway
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if len(cfg.Tiers) == 0 {
		cfg.Tiers = DefaultTiers(8<<20, 24<<20, 32<<20)
	}
	pfsProf := devsim.Profile{
		Name:        "pfs",
		Latency:     cfg.PFS.Latency,
		BytesPerSec: cfg.PFS.Bandwidth,
		Channels:    cfg.PFS.Servers,
	}
	fs := pfs.New(devsim.New(pfsProf, cfg.TimeScale))

	// Shared tiers are single store+device instances used by all nodes.
	shared := make(map[string]*tiers.Store)
	for _, ts := range cfg.Tiers {
		if ts.Shared {
			shared[ts.Name] = newStore(ts, cfg.TimeScale)
		}
	}

	// One in-process fabric for the distributed hashmap.
	names := make([]string, cfg.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	net := comm.NewInprocNetwork(nil)
	dial := inprocDialer{net}
	fabric := cfg.ClusterFabric && cfg.Nodes > 1
	useTCP := fabric && cfg.ClusterTransport == "tcp"
	// Every node's mux exists before any node boots: the fabric needs the
	// full roster (and, over TCP, every peer's bound address) up front so
	// boot skips the discovery churn and the rebalances it would trigger.
	muxes := make([]*comm.Mux, cfg.Nodes)
	for i := range muxes {
		muxes[i] = comm.NewMux()
	}
	var static map[string]string
	var tcpSrvs []*comm.TCPServer
	if fabric {
		static = make(map[string]string, cfg.Nodes)
		if useTCP {
			tcpSrvs = make([]*comm.TCPServer, cfg.Nodes)
			for i := range muxes {
				ts, err := comm.ListenTCP("127.0.0.1:0", muxes[i])
				if err != nil {
					for _, prev := range tcpSrvs {
						if prev != nil {
							prev.Close()
						}
					}
					return nil, err
				}
				tcpSrvs[i] = ts
				static[names[i]] = ts.Addr()
			}
		} else {
			// The in-process fabric addresses peers by node name.
			for _, name := range names {
				static[name] = name
			}
		}
	}

	c := &Cluster{cfg: cfg, fs: fs, net: net, shared: shared}
	if cfg.EnableML {
		c.learner = score.NewLearned(0, cfg.DecayUnit)
	}
	for i := 0; i < cfg.Nodes; i++ {
		var stores []*tiers.Store
		for _, ts := range cfg.Tiers {
			if ts.Shared {
				stores = append(stores, shared[ts.Name])
			} else {
				stores = append(stores, newStore(ts, cfg.TimeScale))
			}
		}
		hier := tiers.NewHierarchy(stores...)

		var reg *telemetry.Registry
		if cfg.EnableTelemetry {
			// One registry per node: snapshot-time closures (queue depth,
			// tier occupancy) are bound to a single server each; merge
			// per-node snapshots with Cluster.TelemetrySnapshot.
			reg = telemetry.NewRegistry()
			if cfg.TimeSampleEvery > 0 {
				reg.SetTimeSampling(cfg.TimeSampleEvery)
			}
			if cfg.EnableLifecycle {
				reg.EnableLifecycle(cfg.LifecycleRing, cfg.LifecycleSampleEvery, cfg.LifecycleMaxActive)
			}
		}

		mux := muxes[i]
		var cn *cluster.Node
		var dl dhm.Dialer
		var nodeList []string
		if cfg.Nodes > 1 {
			dl = dial
			nodeList = names
		}
		if fabric {
			dialAddr := func(addr string) (comm.Peer, error) { return net.Dial(addr), nil }
			if useTCP {
				cstats := comm.NewStats(reg)
				dialAddr = func(addr string) (comm.Peer, error) {
					return comm.DialTCPOpts(addr, comm.PeerOptions{
						DialTimeout:    time.Second,
						RequestTimeout: 2 * time.Second,
						DialAttempts:   2,
						Stats:          cstats,
					})
				}
				tcpSrvs[i].SetStats(cstats)
			}
			cn = cluster.New(cluster.Config{
				Self:              names[i],
				Addr:              static[names[i]],
				Ops:               static[names[i]],
				Static:            static,
				HeartbeatInterval: cfg.ClusterHeartbeat,
				Mux:               mux,
				DialAddr:          dialAddr,
				Telemetry:         reg,
			})
			dl = cn.Dialer()
		}
		stats := dhm.New(dhm.Config{Name: "hfetch-stats", Self: names[i], Nodes: nodeList, Dialer: dl}, mux)
		maps := dhm.New(dhm.Config{Name: "hfetch-maps", Self: names[i], Nodes: nodeList, Dialer: dl}, mux)
		net.Join(names[i], mux)

		var sharedNames []string
		for _, ts := range cfg.Tiers {
			if ts.Shared {
				sharedNames = append(sharedNames, ts.Name)
			}
		}
		srvCfg := cfg.ServerConfig(names[i])
		srvCfg.SharedTiers = sharedNames
		srvCfg.Learner = c.learner
		srvCfg.Telemetry = reg
		srv, err := server.New(srvCfg, fs, hier, stats, maps)
		if err != nil {
			return nil, err
		}
		if cn != nil {
			cn.Attach(srv, stats, maps)
		} else if cfg.Nodes > 1 {
			// Statically wired: the one peer read path, no membership gate.
			srv.EnableRemote(mux, dial)
			srv.SetRemoteReader(cluster.NewFetcher(cluster.FetcherConfig{}, nil, srv))
		}
		srv.Start()
		if cn != nil {
			cn.Start()
		}
		node := &Node{name: names[i], srv: srv, cn: cn, gwSpec: cfg.Gateway}
		if useTCP {
			node.tcp = tcpSrvs[i]
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

func newStore(ts TierSpec, scale float64) *tiers.Store {
	dev := devsim.New(devsim.Profile{
		Name: ts.Name, Latency: ts.Latency, BytesPerSec: ts.Bandwidth, Channels: ts.Channels,
	}, scale)
	return tiers.NewStore(ts.Name, ts.Capacity, dev)
}

type inprocDialer struct{ net *comm.InprocNetwork }

func (d inprocDialer) Dial(node string) comm.Peer { return d.net.Dial(node) }

// Stop shuts down every node. Each server clears its own tiers as it
// stops; the shared tiers are the cluster's and go last, once, when no
// node's mover can land in them any more.
func (c *Cluster) Stop() {
	for _, n := range c.nodes {
		if n.gw != nil {
			n.gw.Close()
		}
		if n.tcp != nil {
			n.tcp.Close()
		}
		if n.cn != nil {
			n.cn.Stop()
		}
		n.srv.Stop()
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
// network (peers' requests to it start failing), its fabric agent and
// server stop, and its own tiers are cleared (the shared ones live on
// with the survivors). With ClusterFabric on, the survivors age it to
// suspect, then dead, and rebalance the hashmaps around it; reads that
// mapped to its tiers degrade to PFS passthrough.
func (c *Cluster) KillNode(i int) {
	n := c.nodes[i]
	c.net.Leave(n.name)
	if n.tcp != nil {
		n.tcp.Close()
	}
	if n.cn != nil {
		n.cn.Stop()
	}
	n.srv.Stop()
}

// ClusterNode exposes node i's fabric agent (nil unless ClusterFabric).
func (c *Cluster) ClusterNode(i int) *cluster.Node { return c.nodes[i].cn }

// CreateFile registers a synthetic file of the given size in the PFS.
func (c *Cluster) CreateFile(name string, size int64) error {
	return c.fs.Create(name, size)
}

// FS exposes the emulated parallel file system.
func (c *Cluster) FS() *pfs.FS { return c.fs }

// MLStats reports the learned-scoring extension's training progress:
// positive and negative examples absorbed. ok is false when EnableML
// was not set.
func (c *Cluster) MLStats() (pos, neg int64, ok bool) {
	if c.learner == nil {
		return 0, 0, false
	}
	pos, neg = c.learner.Examples()
	return pos, neg, true
}

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

// Name returns the node's cluster name.
func (n *Node) Name() string { return n.name }

// Telemetry returns the node's metric registry (nil unless
// Config.EnableTelemetry was set).
func (n *Node) Telemetry() *telemetry.Registry { return n.srv.Telemetry() }

// Server exposes the node's HFetch server (advanced use: metrics,
// hierarchy inspection).
func (n *Node) Server() *server.Server { return n.srv }

// Flush synchronously drains pending events and runs a placement pass.
func (n *Node) Flush() { n.srv.Flush() }

// GatewayHandler returns this node's HTTP range-read gateway, building
// it on first call from Config.Gateway (mount it on any http.Server or
// httptest.Server; see GATEWAY.md for the endpoint semantics). The
// gateway is closed with the cluster.
func (n *Node) GatewayHandler() http.Handler {
	n.gwOnce.Do(func() {
		n.gw = gateway.New(n.srv, n.gwSpec.Config(n.srv.Telemetry()))
	})
	return n.gw
}

// NewClient creates a client (application process) attached to this
// node's server, with its own read statistics.
func (n *Node) NewClient() *Client {
	ag := agent.New(n.srv, n.srv.FS(), nil)
	ag.SetTelemetry(n.srv.Telemetry())
	return &Client{agent: ag}
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
