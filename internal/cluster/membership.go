// Package cluster turns N independent hfetchd servers into one
// prefetching fabric. It supplies the pieces the single-node subsystems
// deliberately left out:
//
//   - heartbeat-based membership with a seed list (join/leave/suspect/
//     dead), driving dhm.Rebalance on every view change so rendezvous
//     ownership of segment statistics and mappings follows the live
//     member set;
//   - a cross-node segment fetch path for local misses (fetch.go):
//     serve from a peer's faster tier over comm before falling back to
//     the PFS, with single-flight dedup and timeout/backoff so a slow or
//     dead peer degrades to PFS passthrough instead of stalling reads;
//   - invalidation fan-out (route.go): a write observed on one node
//     drops the file's prefetched copies on every member;
//   - one connection cache (Membership.Peer), through which the router,
//     the hashmaps and the peer read reach members by name, so a member
//     that restarts on a new address is dialed there.
//
// The paper runs HFetch on every node of a 64-node testbed with one
// shared metadata plane (the distributed hashmap); this package is the
// part that makes that plane survive node churn.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/telemetry"
)

// State is a member's liveness verdict, derived from heartbeat age.
type State uint8

// Member states. Alive members are probed and usable; Suspect members
// stay in the ownership ring but are skipped by the remote-fetch path;
// Dead members leave the ring (triggering a rebalance).
const (
	StateAlive State = iota
	StateSuspect
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return "unknown"
}

// Member is one node's view of a cluster member.
type Member struct {
	Name string
	Addr string
	// Ops is the member's operator-facing (agent/ctl) address, gossiped
	// so fleet views can fan out metric scrapes without static config.
	Ops string
	// State is derived from HeartbeatAge at snapshot time.
	State State
	// Incarnation distinguishes restarts of the same node name.
	Incarnation uint64
	// HeartbeatAge is how long ago this node last heard from the member
	// (zero for self).
	HeartbeatAge time.Duration
	// Keys is the member's last self-reported owned-key count.
	Keys int64
}

// MembershipConfig configures one node's membership agent.
type MembershipConfig struct {
	// Self and Addr identify this node; Addr must be dialable by peers.
	Self string
	Addr string
	// Ops is this node's operator-facing (agent/ctl) address, gossiped
	// in heartbeats so any member can enumerate the fleet's scrape
	// endpoints ("" when the node has none).
	Ops string
	// Seeds are peer addresses probed until their members are learned.
	Seeds []string
	// Static pre-seeds the member table (the emulated cluster boots all
	// nodes at once and skips discovery churn). Entries are (name, addr).
	Static map[string]string
	// HeartbeatInterval is the probe period (default
	// DefaultHeartbeat); a member silent for 4× it is suspect, for 10×
	// dead.
	HeartbeatInterval time.Duration
	// Dial opens a transport connection to a peer address.
	Dial func(addr string) (comm.Peer, error)
	// Keys reports this node's owned-key count for heartbeat payloads
	// (nil reports 0).
	Keys func() int64
	// Stats, when non-nil, instruments the peer connections this agent
	// dials (request latency, timeouts).
	Stats *comm.Stats
	// OnChange is invoked (outside all membership locks, on the
	// heartbeat goroutine) whenever the non-dead view changes, with the
	// sorted member names. This is where the cluster node rebalances its
	// hashmaps.
	OnChange func(view []string)
	// Telemetry, when non-nil, exports membership gauges and heartbeat
	// counters.
	Telemetry *telemetry.Registry
}

type memberState struct {
	name        string
	addr        string
	ops         string
	incarnation uint64
	lastSeen    time.Time
	keys        int64
}

// Membership is one node's heartbeat-based membership agent. All-to-all
// probing: every tick this node sends its member list to every known
// member (and to unresolved seeds) and merges the lists it receives, so
// membership spreads transitively from any seed.
//
// Lock discipline: mu is never held across Dial, Request or OnChange.
type Membership struct {
	cfg           MembershipConfig
	suspect, dead time.Duration // the silence thresholds

	mu      sync.RWMutex
	members map[string]*memberState
	view    []string // last view OnChange fired with (sorted, non-dead)
	// Scratch under mu (the gossiped list, the last parsed members, the
	// view compared with view), then tick's own (targets, heartbeat, probes).
	wire, parsed []wireMember
	next         []string
	targets      []target
	sendBuf      []byte
	probes       sync.WaitGroup

	peerMu sync.Mutex
	peers  map[string]comm.Peer // by address

	viewVersion atomic.Uint64
	hbSent      atomic.Int64
	hbFailed    atomic.Int64

	incarnation uint64

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool
}

// MsgHeartbeat is the membership probe message type.
const MsgHeartbeat = "cluster.hb"

// wireMember is a member entry as gossiped in heartbeats. Liveness
// timestamps are deliberately not gossiped: every node judges liveness
// from its own clock and its own probe outcomes.
type wireMember struct {
	Name        string
	Addr        string
	Ops         string
	Incarnation uint64
	Keys        int64
}

// target is a member (or, nameless, a seed) a tick probes.
type target struct{ name, addr string }

// hbMsg is a heartbeat (wire.go has its codec); a response carries only
// Members.
type hbMsg struct {
	From    wireMember
	Members []wireMember
}

// DefaultHeartbeat is the membership probe period of every cluster, a
// daemon fabric's and a library one's, unless its configuration sets
// another.
const DefaultHeartbeat = 250 * time.Millisecond

// NewMembership builds the agent and registers its heartbeat handler on
// mux. Call Start to begin probing.
func NewMembership(cfg MembershipConfig, mux *comm.Mux) *Membership {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeat
	}
	m := &Membership{
		cfg:         cfg,
		suspect:     4 * cfg.HeartbeatInterval,
		dead:        10 * cfg.HeartbeatInterval,
		members:     make(map[string]*memberState),
		peers:       make(map[string]comm.Peer),
		incarnation: uint64(time.Now().UnixNano()),
	}
	now := time.Now()
	m.members[cfg.Self] = &memberState{
		name: cfg.Self, addr: cfg.Addr, ops: cfg.Ops, incarnation: m.incarnation, lastSeen: now,
	}
	for name, addr := range cfg.Static {
		if name == cfg.Self {
			continue
		}
		m.members[name] = &memberState{name: name, addr: addr, lastSeen: now}
	}
	m.view = m.aliveView(nil, now)
	if mux != nil {
		mux.Register(MsgHeartbeat, m.handleHeartbeat)
	}
	if reg := cfg.Telemetry; reg != nil {
		for _, st := range []State{StateAlive, StateSuspect, StateDead} {
			st := st
			reg.GaugeFunc("hfetch_cluster_members", "cluster members by state",
				func() int64 { return m.countState(st) }, "state", st.String())
		}
		reg.GaugeFunc("hfetch_cluster_view_version", "membership view version (bumps on every change)",
			func() int64 { return int64(m.viewVersion.Load()) })
		reg.CounterFunc("hfetch_cluster_heartbeats_total", "heartbeat probes sent", m.hbSent.Load)
		reg.CounterFunc("hfetch_cluster_heartbeat_failures_total", "heartbeat probes that failed", m.hbFailed.Load)
	}
	return m
}

// Start launches the heartbeat loop (the first tick runs immediately).
func (m *Membership) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.stop = make(chan struct{})
	m.mu.Unlock()
	m.wg.Add(1)
	go m.loop()
}

// Stop terminates probing and closes peer connections.
func (m *Membership) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	m.started = false
	close(m.stop)
	m.mu.Unlock()
	m.wg.Wait()
	m.peerMu.Lock()
	for addr, p := range m.peers {
		p.Close()
		delete(m.peers, addr)
	}
	m.peerMu.Unlock()
}

func (m *Membership) loop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		m.tick()
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
	}
}

// tick refreshes self, probes every other member plus unresolved seeds,
// merges what they answered, and fires OnChange if the view moved.
func (m *Membership) tick() {
	now := time.Now()
	keys := m.keysNow()

	targets := m.targets[:0]
	known := make(map[string]bool)
	m.mu.Lock()
	self := m.members[m.cfg.Self]
	self.lastSeen = now
	self.keys = keys
	for _, ms := range m.members {
		known[ms.addr] = true
		if ms.name == m.cfg.Self || ms.addr == "" {
			continue
		}
		if now.Sub(ms.lastSeen) > m.dead {
			continue // dead members are not probed; a rejoin re-seeds
		}
		targets = append(targets, target{ms.name, ms.addr})
	}
	msg := appendHeartbeat(m.sendBuf[:0], hbMsg{From: wireMember{
		Name: m.cfg.Self, Addr: m.cfg.Addr, Ops: m.cfg.Ops, Incarnation: m.incarnation, Keys: keys,
	}, Members: m.wireMembersLocked()})
	m.mu.Unlock()
	m.sendBuf = msg

	for _, s := range m.cfg.Seeds {
		if s != "" && s != m.cfg.Addr && !known[s] {
			targets = append(targets, target{"", s})
		}
	}

	m.targets = targets
	for _, t := range targets {
		m.probes.Add(1)
		go func() {
			defer m.probes.Done()
			m.probe(t.name, t.addr, msg)
		}()
	}
	m.probes.Wait()

	m.fireIfChanged()
}

// wireMembersLocked lists the member table as gossiped, in m.wire; mu
// must be held.
func (m *Membership) wireMembersLocked() []wireMember {
	m.wire = m.wire[:0]
	for _, ms := range m.members {
		m.wire = append(m.wire, wireMember{
			Name: ms.name, Addr: ms.addr, Ops: ms.ops, Incarnation: ms.incarnation, Keys: ms.keys,
		})
	}
	return m.wire
}

// probe sends one heartbeat to addr and merges the response. A probe
// failure drops the cached connection so the next tick redials.
func (m *Membership) probe(name, addr string, payload []byte) {
	p, err := m.peer(addr)
	var rep comm.Reply
	if err == nil {
		m.hbSent.Add(1)
		rep, err = comm.Call(p, MsgHeartbeat, payload)
	}
	if err != nil {
		m.hbFailed.Add(1)
		m.dropPeer(addr)
		return
	}
	defer rep.Release()
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	resp, err := parseHeartbeat(rep.Head, m.parsed, m.members)
	if err != nil {
		return
	}
	m.parsed = resp.Members
	// The probed member answered: that is a direct liveness observation.
	if name != "" {
		if ms := m.members[name]; ms != nil {
			ms.lastSeen = now
		}
	}
	m.mergeLocked(resp.Members, now)
}

// handleHeartbeat merges the sender's view and answers with ours. The
// sender itself is a direct observation: it is provably alive now.
func (m *Membership) handleHeartbeat(raw []byte) ([]byte, error) {
	now := time.Now()
	m.mu.Lock()
	msg, err := parseHeartbeat(raw, m.parsed, m.members)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.parsed = msg.Members
	m.mergeOneLocked(msg.From, now, true)
	m.mergeLocked(msg.Members, now)
	// The one buffer a heartbeat allocates: the answer outlives the call.
	resp := appendHeartbeat(make([]byte, 0, len(raw)), hbMsg{Members: m.wireMembersLocked()})
	m.mu.Unlock()

	// A heartbeat can move the view (a joiner's first contact); the
	// handler runs on a transport goroutine, outside every lock.
	m.fireIfChanged()
	return resp, nil
}

// mergeLocked folds gossiped member entries in; mu must be held.
// Gossiped entries are indirect: they introduce unknown members (with a
// fresh grace timestamp so they are probed before being judged) and
// refresh addresses/incarnations, but never liveness.
func (m *Membership) mergeLocked(list []wireMember, now time.Time) {
	for _, wm := range list {
		m.mergeOneLocked(wm, now, false)
	}
}

func (m *Membership) mergeOneLocked(wm wireMember, now time.Time, direct bool) {
	if wm.Name == "" {
		return
	}
	ms := m.members[wm.Name]
	if ms == nil {
		ms = &memberState{name: wm.Name, lastSeen: now}
		m.members[wm.Name] = ms
	}
	if wm.Incarnation >= ms.incarnation {
		if wm.Addr != "" {
			ms.addr = wm.Addr
		}
		if wm.Ops != "" && wm.Name != m.cfg.Self {
			ms.ops = wm.Ops
		}
		if wm.Incarnation > ms.incarnation && wm.Name != m.cfg.Self {
			// A restart: treat as freshly seen so the rejoiner is not
			// carried as suspect from its previous life.
			ms.incarnation = wm.Incarnation
			ms.lastSeen = now
		}
		if wm.Name != m.cfg.Self {
			ms.keys = wm.Keys
		}
	}
	if direct {
		ms.lastSeen = now
	}
}

// fireIfChanged recomputes the non-dead view and invokes OnChange
// outside the lock when it differs from the last fired view.
func (m *Membership) fireIfChanged() {
	now := time.Now()
	m.mu.Lock()
	m.next = m.aliveView(m.next[:0], now)
	if slices.Equal(m.next, m.view) {
		m.mu.Unlock()
		return
	}
	view := slices.Clone(m.next)
	m.view = view
	fn := m.cfg.OnChange
	m.mu.Unlock()
	m.viewVersion.Add(1)
	if fn != nil {
		fn(append([]string(nil), view...))
	}
}

// aliveView appends the sorted names of non-dead members to out; mu
// must be held.
func (m *Membership) aliveView(out []string, now time.Time) []string {
	for _, ms := range m.members {
		if ms.name == m.cfg.Self || now.Sub(ms.lastSeen) <= m.dead {
			out = append(out, ms.name)
		}
	}
	sort.Strings(out)
	return out
}

func (m *Membership) stateOfLocked(ms *memberState, now time.Time) State {
	if ms.name == m.cfg.Self {
		return StateAlive
	}
	age := now.Sub(ms.lastSeen)
	switch {
	case age <= m.suspect:
		return StateAlive
	case age <= m.dead:
		return StateSuspect
	default:
		return StateDead
	}
}

// StateOf returns name's current state; ok is false for unknown nodes.
func (m *Membership) StateOf(name string) (State, bool) {
	now := time.Now()
	m.mu.RLock()
	defer m.mu.RUnlock()
	ms := m.members[name]
	if ms == nil {
		return StateDead, false
	}
	return m.stateOfLocked(ms, now), true
}

// Usable reports whether name is a known, alive member — the
// remote-fetch path's gate (suspect and dead peers are skipped so reads
// degrade to PFS passthrough instead of waiting on them).
func (m *Membership) Usable(name string) bool {
	st, ok := m.StateOf(name)
	return ok && st == StateAlive
}

// Suspect force-ages name's liveness so it is judged suspect now (the
// fetch path calls this after repeated request failures). A successful
// heartbeat restores it.
func (m *Membership) Suspect(name string) {
	now := time.Now()
	m.mu.Lock()
	ms := m.members[name]
	if ms != nil && ms.name != m.cfg.Self {
		if aged := now.Add(-m.suspect - time.Nanosecond); ms.lastSeen.After(aged) {
			ms.lastSeen = aged
		}
	}
	m.mu.Unlock()
}

// SuspectCount returns how many members are currently judged suspect —
// the watchdog's membership probe pending quantity.
func (m *Membership) SuspectCount() int64 { return m.countState(StateSuspect) }

// HeartbeatsSent returns the total probes sent — the watchdog's
// membership progress counter.
func (m *Membership) HeartbeatsSent() int64 { return m.hbSent.Load() }

// AddrOf resolves a member name to its dial address.
func (m *Membership) AddrOf(name string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ms := m.members[name]
	if ms == nil || ms.addr == "" {
		return "", false
	}
	return ms.addr, true
}

// Members returns a snapshot of every known member (including dead
// ones), sorted by name, with derived states and heartbeat ages.
func (m *Membership) Members() []Member {
	now := time.Now()
	// Self's key count comes from the dhm (LocalLen takes shard locks);
	// fetch it before mu so no membership lock is held across it.
	selfKeys := m.keysNow()
	m.mu.RLock()
	out := make([]Member, 0, len(m.members))
	for _, ms := range m.members {
		mb := Member{
			Name: ms.name, Addr: ms.addr, Ops: ms.ops,
			State:       m.stateOfLocked(ms, now),
			Incarnation: ms.incarnation,
			Keys:        ms.keys,
		}
		if ms.name != m.cfg.Self {
			mb.HeartbeatAge = now.Sub(ms.lastSeen)
		} else {
			mb.Keys = selfKeys
		}
		out = append(out, mb)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (m *Membership) keysNow() int64 {
	if m.cfg.Keys == nil {
		return 0
	}
	return m.cfg.Keys()
}

// View returns the current non-dead view (sorted names).
func (m *Membership) View() []string {
	now := time.Now()
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.aliveView(nil, now)
}

// ViewVersion returns how many times the view has changed.
func (m *Membership) ViewVersion() uint64 { return m.viewVersion.Load() }

// Self returns this node's name.
func (m *Membership) Self() string { return m.cfg.Self }

func (m *Membership) countState(st State) int64 {
	now := time.Now()
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, ms := range m.members {
		if m.stateOfLocked(ms, now) == st {
			n++
		}
	}
	return n
}

// WaitView polls until the non-dead view has exactly want members (or
// the timeout passes); it reports success. Test and harness helper.
func (m *Membership) WaitView(want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if len(m.View()) == want {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---- peer cache ----

var _ comm.Peers = (*Membership)(nil)

// Peer returns a cached transport connection to the named member,
// dialing if needed. It is the node's one connection cache: the router,
// the hashmaps and the peer read reach members through it by name, so a
// member that restarts on a new address is dialed there, and the cache
// is shared with the heartbeat prober, so a connection a probe declared
// dead is redialed here and vice versa. An unknown or dead member is an
// error and is never dialed: its caller's fallback (PFS, skip) applies
// at once instead of after a dial.
func (m *Membership) Peer(name string) (comm.Peer, error) {
	if st, known := m.StateOf(name); !known || st == StateDead {
		return nil, fmt.Errorf("cluster: member %q unreachable (state %v)", name, st)
	}
	addr, ok := m.AddrOf(name)
	if !ok {
		return nil, fmt.Errorf("cluster: no address for member %q", name)
	}
	return m.peer(addr)
}

// DropPeer discards the cached connection to the named member (callers
// do this after a transport error so the next use redials).
func (m *Membership) DropPeer(name string) {
	if addr, ok := m.AddrOf(name); ok {
		m.dropPeer(addr)
	}
}

func (m *Membership) peer(addr string) (comm.Peer, error) {
	m.peerMu.Lock()
	if p, ok := m.peers[addr]; ok {
		m.peerMu.Unlock()
		return p, nil
	}
	m.peerMu.Unlock()
	// Dial outside the lock: a slow connect must not serialize probes.
	p, err := m.cfg.Dial(addr)
	if err != nil {
		return nil, err
	}
	p = comm.InstrumentPeer(p, addr, m.cfg.Stats)
	m.peerMu.Lock()
	if prev, ok := m.peers[addr]; ok {
		m.peerMu.Unlock()
		p.Close()
		return prev, nil
	}
	m.peers[addr] = p
	m.peerMu.Unlock()
	return p, nil
}

func (m *Membership) dropPeer(addr string) {
	m.peerMu.Lock()
	if p, ok := m.peers[addr]; ok {
		delete(m.peers, addr)
		m.peerMu.Unlock()
		p.Close()
		return
	}
	m.peerMu.Unlock()
}
