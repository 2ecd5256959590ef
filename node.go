package hfetch

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"hfetch/internal/cluster"
	"hfetch/internal/comm"
	"hfetch/internal/config"
	"hfetch/internal/core/agent"
	"hfetch/internal/core/server"
	"hfetch/internal/devsim"
	"hfetch/internal/dhm"
	"hfetch/internal/gateway"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// Node is one compute node: an HFetch server plus its tier hierarchy.
// NewNode builds the one cmd/hfetchd runs; NewCluster builds each of its
// nodes the same way.
type Node struct {
	name string
	srv  *server.Server
	cn   *cluster.Node   // fabric membership; nil on a node alone
	tcp  *comm.TCPServer // peer listener; nil unless the fabric runs over TCP
	wal  *dhm.WAL        // nil unless the hashmaps are logged
	wd   *telemetry.Watchdog

	gwCfg  gateway.Config
	gwOnce sync.Once
	gw     *gateway.Gateway
}

// nodeSpec is what a node is built from besides its Config: what its
// deployment shares with it or fixes for it. The zero peer fields build a
// node alone.
type nodeSpec struct {
	name string
	fs   *pfs.FS
	// shared holds the stores of the tiers every node of a cluster shares;
	// a tier without one here is the node's own.
	shared map[string]*tiers.Store
	// walPath, when set, logs the hashmaps (see server.NewMaps).
	walPath string
	// watchdog configures the stall watchdog, which runs whenever
	// telemetry is on; nil turns it off.
	watchdog *telemetry.WatchdogConfig

	// mux carries the node's peer traffic; roster lists the hashmap
	// members at boot, self included.
	mux    *comm.Mux
	roster []string
	// net is the in-process network peers are reached through; nil means
	// TCP, over tcp (the node's peer listener, already serving mux) with
	// every dial and request bounded by timeout.
	net     *comm.InprocNetwork
	tcp     *comm.TCPServer
	timeout time.Duration
	// fabric, set whenever mux is, runs membership (Mux, DialAddr and
	// Telemetry are filled in here).
	fabric *cluster.Config
}

// NewNode builds and starts the node cmd/hfetchd runs from its JSON
// configuration: the PFS with d's files, the tiers, the hashmaps (local,
// WAL-backed, or a cluster member's that joins d's seeds over a peer
// listener on peer_listen), the server, and the stall watchdog. The caller
// serves the agent protocol and the HTTP API; Stop shuts the node down.
func NewNode(d config.Config) (*Node, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cfg := FromConfig(d)
	cfg.EnableTelemetry = !d.DisableTelemetry
	cfg.EnableLifecycle = !d.DisableLifecycle
	fs := newPFS(cfg)
	for _, f := range d.Files {
		if err := fs.Create(f.Name, f.Size); err != nil {
			return nil, err
		}
	}
	s := nodeSpec{name: d.Node, fs: fs, walPath: d.WALPath}
	if !d.DisableWatchdog {
		s.watchdog = &telemetry.WatchdogConfig{Stall: d.WatchdogStall(), Dir: d.WatchdogDir}
	}
	if d.Clustered() {
		s.mux = comm.NewMux()
		s.mux.RegisterPing()
		tcp, err := comm.ListenTCP(d.PeerListen, s.mux)
		if err != nil {
			return nil, err
		}
		// The roster starts as this node: the fabric grows it as the seeds
		// answer and members are heard from.
		s.roster, s.tcp, s.timeout = []string{d.Node}, tcp, d.PeerRequestTimeout()
		s.fabric = &cluster.Config{Self: d.Node, Addr: d.PeerListen, Ops: d.Listen, Seeds: d.Seeds,
			HeartbeatInterval: d.Heartbeat()}
	}
	n, err := assemble(cfg, s)
	if err != nil {
		if s.tcp != nil {
			s.tcp.Close()
		}
		return nil, err
	}
	if d.SlogLevel() <= slog.LevelDebug {
		n.gwCfg.Logger = slog.Default()
	}
	return n, nil
}

// assemble builds and starts one node. When it fails, the caller still
// owns s.tcp.
func assemble(cfg Config, s nodeSpec) (*Node, error) {
	var stores []*tiers.Store
	var shared []string
	for _, ts := range cfg.Tiers {
		st := s.shared[ts.Name]
		if st == nil {
			st = newStore(ts, cfg.TimeScale)
		}
		stores = append(stores, st)
		if ts.Shared {
			shared = append(shared, ts.Name)
		}
	}

	var reg *telemetry.Registry
	if cfg.EnableTelemetry {
		// One registry per node: snapshot-time closures (queue depth, tier
		// occupancy) are bound to a single server each; merge per-node
		// snapshots with Cluster.TelemetrySnapshot.
		reg = telemetry.NewRegistry()
		if cfg.TimeSampleEvery > 0 {
			reg.SetTimeSampling(cfg.TimeSampleEvery)
		}
		if cfg.EnableLifecycle {
			reg.EnableLifecycle(cfg.LifecycleSampleEvery)
		}
	}

	g := cfg.Gateway
	n := &Node{name: s.name, tcp: s.tcp, gwCfg: gateway.Config{
		MaxInflight: g.MaxInflight, ClientInflight: g.ClientInflight, TenantRPS: g.TenantRPS,
		TenantBurst: g.TenantBurst, AdmitWait: g.AdmitWait, Telemetry: reg,
	}}
	var peers comm.Peers
	if s.fabric != nil {
		fc := *s.fabric
		fc.Mux, fc.Telemetry = s.mux, reg
		if s.net != nil {
			fc.DialAddr = func(addr string) (comm.Peer, error) { return s.net.Dial(addr), nil }
		} else {
			cstats := comm.NewStats(reg)
			s.tcp.SetStats(cstats)
			fc.DialAddr = func(addr string) (comm.Peer, error) {
				return comm.DialTCPOpts(addr, comm.PeerOptions{
					DialTimeout:    s.timeout,
					RequestTimeout: s.timeout,
					DialAttempts:   2,
					Stats:          cstats,
				})
			}
		}
		n.cn = cluster.New(fc)
		peers = n.cn.Membership()
	}
	stats, maps, wal, err := server.NewMaps(s.name, s.roster, peers, s.mux, s.walPath)
	if err != nil {
		return nil, err
	}
	n.wal = wal

	scfg := cfg.ServerConfig(s.name)
	scfg.SharedTiers = shared
	scfg.Telemetry = reg
	n.srv, err = server.New(scfg, s.fs, tiers.NewHierarchy(stores...), stats, maps)
	if err != nil {
		if wal != nil {
			wal.Close()
		}
		return nil, err
	}
	if n.cn != nil {
		n.cn.Attach(n.srv, stats, maps)
	}
	n.srv.Start()
	if n.cn != nil {
		n.cn.Start()
	}
	var wd *telemetry.Watchdog
	if reg != nil && s.watchdog != nil {
		wc := *s.watchdog
		wc.Registry = reg
		wd = telemetry.NewWatchdog(wc)
	}
	n.watch(wd)
	return n, nil
}

// watch starts wd (nil: none) over every pipeline that can wedge: the
// event rings, the mover and, in a fabric, membership; the gateway's probe
// joins when GatewayHandler builds it. A probe trips when its work stays
// pending with no progress for the stall window, and the trip writes a
// diagnostic bundle.
func (n *Node) watch(wd *telemetry.Watchdog) {
	n.wd = wd
	if wd == nil {
		return
	}
	mon := n.srv.Monitor()
	wd.AddProbe(telemetry.WatchdogProbe{
		Name:     "monitor",
		Pending:  func() int64 { return int64(mon.Backlog()) },
		Progress: mon.Consumed,
	})
	eng := n.srv.Engine()
	wd.AddProbe(telemetry.WatchdogProbe{
		Name:    "mover",
		Pending: func() int64 { return int64(eng.MoverStats().Outstanding) },
		Progress: func() int64 {
			ms := eng.MoverStats()
			return ms.Executed + ms.Failed + ms.Cancelled + ms.Superseded
		},
	})
	wd.AddDump("mover", func() string {
		ms := eng.MoverStats()
		return fmt.Sprintf("submitted=%d executed=%d failed=%d coalesced=%d superseded=%d cancelled=%d outstanding=%d queue_depths=%v",
			ms.Submitted, ms.Executed, ms.Failed, ms.Coalesced, ms.Superseded, ms.Cancelled, ms.Outstanding, ms.QueueDepths)
	})
	if n.cn != nil {
		mem := n.cn.Membership()
		wd.AddProbe(telemetry.WatchdogProbe{
			Name:     "membership",
			Pending:  mem.SuspectCount,
			Progress: mem.HeartbeatsSent,
		})
	}
	wd.Start()
}

// newPFS is the modeled origin file system of cfg.PFS.
func newPFS(cfg Config) *pfs.FS {
	return pfs.New(devsim.New(devsim.Profile{
		Name:        "pfs",
		Latency:     cfg.PFS.Latency,
		BytesPerSec: cfg.PFS.Bandwidth,
		Channels:    cfg.PFS.Servers,
	}, cfg.TimeScale))
}

func newStore(ts TierSpec, scale float64) *tiers.Store {
	dev := devsim.New(devsim.Profile{
		Name: ts.Name, Latency: ts.Latency, BytesPerSec: ts.Bandwidth, Channels: ts.Channels,
	}, scale)
	return tiers.NewStore(ts.Name, ts.Capacity, dev)
}

// Stop shuts the node down: its gateway, watchdog, peer listener, fabric
// agent and server, which clears the node's own tiers (shared ones are
// its cluster's). Stopping a stopped node does nothing.
func (n *Node) Stop() {
	if n.gw != nil {
		n.gw.Close()
	}
	if wd := n.wd; wd != nil {
		wd.Stop()
	}
	if n.tcp != nil {
		n.tcp.Close()
	}
	if n.cn != nil {
		n.cn.Stop()
	}
	n.srv.Stop()
	if n.wal != nil {
		n.wal.Close()
	}
}

// Name returns the node's cluster name.
func (n *Node) Name() string { return n.name }

// Telemetry returns the node's metric registry (nil unless
// Config.EnableTelemetry was set).
func (n *Node) Telemetry() *telemetry.Registry { return n.srv.Telemetry() }

// Server exposes the node's HFetch server (advanced use: metrics,
// hierarchy inspection).
func (n *Node) Server() *server.Server { return n.srv }

// ClusterNode exposes the node's fabric agent (nil outside a fabric).
func (n *Node) ClusterNode() *cluster.Node { return n.cn }

// Flush synchronously drains pending events and runs a placement pass.
func (n *Node) Flush() { n.srv.Flush() }

// GatewayHandler returns this node's HTTP range-read gateway, building
// it on first call from Config.Gateway (mount it on any http.Server or
// httptest.Server; see GATEWAY.md for the endpoint semantics). Its probe
// then joins the node's watchdog. The gateway is closed with the node.
func (n *Node) GatewayHandler() http.Handler {
	n.gwOnce.Do(func() {
		n.gw = gateway.New(n.srv, n.gwCfg)
		if wd := n.wd; wd != nil {
			wd.AddProbe(telemetry.WatchdogProbe{
				Name:     "gateway",
				Pending:  n.gw.InflightNow,
				Progress: n.gw.Completed,
			})
		}
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
