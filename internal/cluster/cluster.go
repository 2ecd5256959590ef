package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/server"
	"hfetch/internal/dhm"
	"hfetch/internal/telemetry"
)

// Config configures one cluster node.
type Config struct {
	// Self names this node; Addr is its peer-facing transport address
	// (what other members dial — the daemon's peer_listen, or the node
	// name on an in-process network).
	Self string
	Addr string
	// Ops is this node's operator-facing (agent/ctl) address, gossiped
	// to peers so fleet views (hfetchctl -fleet) can fan out without
	// static configuration ("" when none).
	Ops string
	// Seeds are peer addresses contacted to join an existing cluster.
	Static map[string]string
	Seeds  []string
	// Heartbeat timing; see MembershipConfig (zeros take defaults).
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration
	DeadAfter         time.Duration
	// Mux is the peer-facing handler table: heartbeats, routed updates,
	// dhm traffic and remote reads all share it.
	Mux *comm.Mux
	// DialAddr opens a transport connection to a peer address
	// (comm.DialTCPOpts for daemons, InprocNetwork.Dial for emulation).
	DialAddr func(addr string) (comm.Peer, error)
	// Fetch tunes the cross-node read path (zeros take defaults).
	Fetch FetcherConfig
	// SuspectThreshold is the consecutive-failure count before a peer is
	// reported suspect (default comm.DefaultHealthThreshold).
	SuspectThreshold int
	// Telemetry, when non-nil, exports the cluster metric families.
	Telemetry *telemetry.Registry
}

// Node is one hfetchd's membership in the prefetching fabric. Staged
// construction, because the server and hashmaps need the dialer before
// the fabric can start:
//
//	n := cluster.New(cfg)           // membership built, not probing
//	d := n.Dialer()                 // give to dhm.Config and the server
//	n.Attach(srv, stats, maps)      // install fetcher, router, rebalance
//	n.Start()                       // join seeds, begin heartbeats
type Node struct {
	cfg       Config
	mem       *Membership
	health    *comm.Health
	fetch     *Fetcher
	commStats *comm.Stats

	mu    sync.Mutex
	stats *dhm.Map
	maps  *dhm.Map

	rebalances   atomic.Int64
	keysMigrated atomic.Int64
}

// New builds the node's membership agent (registered on cfg.Mux, not
// yet probing).
func New(cfg Config) *Node {
	n := &Node{cfg: cfg}
	thr := cfg.SuspectThreshold
	if thr <= 0 {
		thr = comm.DefaultHealthThreshold
	}
	n.health = comm.NewHealth(thr)
	n.commStats = comm.NewStats(cfg.Telemetry)
	n.health.SetStats(n.commStats)
	n.mem = NewMembership(MembershipConfig{
		Self:              cfg.Self,
		Addr:              cfg.Addr,
		Ops:               cfg.Ops,
		Seeds:             cfg.Seeds,
		Static:            cfg.Static,
		HeartbeatInterval: cfg.HeartbeatInterval,
		SuspectAfter:      cfg.SuspectAfter,
		DeadAfter:         cfg.DeadAfter,
		Dial:              cfg.DialAddr,
		Keys:              n.keyCount,
		Health:            n.health,
		Stats:             n.commStats,
		OnChange:          n.onViewChange,
		Telemetry:         cfg.Telemetry,
	}, cfg.Mux)
	if reg := cfg.Telemetry; reg != nil {
		reg.CounterFunc("hfetch_cluster_rebalances_total", "hashmap rebalances triggered by view changes", n.rebalances.Load)
		reg.CounterFunc("hfetch_cluster_keys_migrated_total", "hashmap keys migrated by rebalances", n.keysMigrated.Load)
	}
	return n
}

// Attach wires the fabric into a built server and its hashmaps: the
// cross-node fetch path becomes the server's peer read path, the
// node-aware router wraps the placement engine, and view changes
// rebalance both hashmaps. Call before Start.
func (n *Node) Attach(srv *server.Server, stats, maps *dhm.Map) {
	n.mu.Lock()
	n.stats = stats
	n.maps = maps
	n.mu.Unlock()

	fc := n.cfg.Fetch
	fc.Health = n.health
	if fc.SuspectAfter <= 0 {
		fc.SuspectAfter = n.health.Threshold()
	}
	fc.Telemetry = n.cfg.Telemetry
	n.fetch = NewFetcher(fc, n.mem, srv)
	srv.SetRemoteReader(n.fetch)

	router := NewRouter(n.cfg.Self, srv.Engine(), n.mem, n.cfg.Mux, n.cfg.Telemetry)
	srv.Auditor().SetSink(router)

	srv.EnableRemote(n.cfg.Mux, n.Dialer())
}

// Start joins the cluster: seed probing and heartbeats begin, and the
// first view change (discovering the existing members) rebalances the
// hashmaps so this node takes ownership of its key range.
func (n *Node) Start() { n.mem.Start() }

// Stop leaves the cluster (no farewell is sent; peers age this node to
// suspect and then dead, exactly as a crash would — one code path for
// both).
func (n *Node) Stop() { n.mem.Stop() }

// Membership exposes the membership agent.
func (n *Node) Membership() *Membership { return n.mem }

// Fetcher exposes the cross-node fetch path (nil before Attach).
func (n *Node) Fetcher() *Fetcher { return n.fetch }

// Health exposes the shared per-peer health tracker.
func (n *Node) Health() *comm.Health { return n.health }

// CommStats exposes the transport instrumentation handle (nil when
// telemetry is off), for callers that dial their own peers or host a
// comm server and want those paths counted into the same families.
func (n *Node) CommStats() *comm.Stats { return n.commStats }

// RebalanceStats reports (view-change rebalances run, keys migrated).
func (n *Node) RebalanceStats() (rebalances, keys int64) {
	return n.rebalances.Load(), n.keysMigrated.Load()
}

func (n *Node) keyCount() int64 {
	n.mu.Lock()
	stats, maps := n.stats, n.maps
	n.mu.Unlock()
	var c int64
	if stats != nil {
		c += int64(stats.LocalLen())
	}
	if maps != nil {
		c += int64(maps.LocalLen())
	}
	return c
}

// onViewChange runs on the heartbeat goroutine with no membership lock
// held: rendezvous ownership follows the new view on both hashmaps.
func (n *Node) onViewChange(view []string) {
	n.mu.Lock()
	stats, maps := n.stats, n.maps
	n.mu.Unlock()
	if stats == nil && maps == nil {
		return
	}
	n.rebalances.Add(1)
	if stats != nil {
		if migrated, err := stats.Rebalance(view); err == nil {
			n.keysMigrated.Add(int64(migrated))
		}
	}
	if maps != nil {
		if migrated, err := maps.Rebalance(view); err == nil {
			n.keysMigrated.Add(int64(migrated))
		}
	}
}

// MemberInfo is one row of the operator-facing membership view
// (hfetchctl nodes).
type MemberInfo struct {
	Name         string
	Addr         string
	Ops          string
	State        string
	HeartbeatAge time.Duration
	Keys         int64
	// FetchP99 is this node's observed p99 cross-node fetch latency to
	// the member, in nanoseconds (0 = no fetches yet).
	FetchP99 int64
}

// Infos snapshots the membership table for operators.
func (n *Node) Infos() []MemberInfo {
	members := n.mem.Members()
	out := make([]MemberInfo, 0, len(members))
	for _, m := range members {
		mi := MemberInfo{
			Name:         m.Name,
			Addr:         m.Addr,
			Ops:          m.Ops,
			State:        m.State.String(),
			HeartbeatAge: m.HeartbeatAge,
			Keys:         m.Keys,
		}
		if n.fetch != nil {
			mi.FetchP99 = n.fetch.PeerP99(m.Name)
		}
		out = append(out, mi)
	}
	return out
}
