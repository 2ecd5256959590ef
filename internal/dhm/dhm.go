// Package dhm implements the distributed hashmap HFetch keeps its
// segment statistics and segment-to-tier mappings in (the paper uses
// HCL, the Hermes Container Library [43]). It provides:
//
//   - O(1) concurrent insertion and querying via lock-striped shards;
//   - node-level partitioning: every key has a single owner node chosen
//     by highest-random-weight (rendezvous) hashing, so updates are
//     visible cluster-wide without a global synchronization barrier;
//   - atomic read-modify-write through named, pre-registered operations
//     (closures cannot cross the wire, so mutators are registered on
//     every node and invoked by name at the owner — the same server-side
//     operation model HCL uses);
//   - optional write-ahead logging for fault tolerance across
//     power-downs (see wal.go).
//
// Values are arbitrary Go values on the owner. Crossing the wire they
// take the tagged binary encoding of wire.go: strings and integers are
// built in, any other type needs a ValueCodec registered by its owner
// (RegisterValue) or the remote call fails — local maps never touch a
// codec.
package dhm

import (
	"fmt"
	"sort"
	"sync"

	"hfetch/internal/comm"
)

// OpFunc is a named mutator: it receives the current value (nil if the
// key is absent) and an opaque argument, and returns the new value.
// Returning nil deletes the key.
type OpFunc func(cur any, arg []byte) any

// Dialer abstracts how the map reaches other nodes.
type Dialer interface {
	Dial(node string) comm.Peer
}

// Config configures a Map instance.
type Config struct {
	// Name namespaces the map's message types and WAL records.
	Name string
	// Self is this node's name; Nodes is the full member list. An empty
	// Nodes list means a single-node map.
	Self  string
	Nodes []string
	// Shards is the number of local lock stripes (default 64).
	Shards int
	// Dialer reaches remote owners; may be nil for single-node maps.
	Dialer Dialer
	// WAL, when non-nil, records local mutations for recovery.
	WAL *WAL
}

// Map is one distributed hashmap instance.
type Map struct {
	cfg Config
	// memberMu guards cfg.Nodes: Rebalance rewrites the membership while
	// Owner lookups run concurrently.
	memberMu sync.RWMutex
	shards   []shard

	opMu sync.RWMutex
	ops  map[string]OpFunc

	peerMu sync.Mutex
	peers  map[string]comm.Peer

	// msgTypes are the four RPC message types, built once: the name
	// concatenation is off the per-call path.
	msgTypes [4]string
}

const (
	rpcGet = iota
	rpcPut
	rpcDel
	rpcApply
)

type shard struct {
	mu sync.RWMutex
	m  map[string]any
}

// New creates a Map and, when mux is non-nil, registers its remote
// handlers so other nodes can reach this one's shards.
func New(cfg Config, mux *comm.Mux) *Map {
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	m := &Map{
		cfg:   cfg,
		ops:   make(map[string]OpFunc),
		peers: make(map[string]comm.Peer),
	}
	for i, op := range [...]string{rpcGet: "get", rpcPut: "put", rpcDel: "del", rpcApply: "apply"} {
		m.msgTypes[i] = "dhm." + cfg.Name + "." + op
	}
	m.shards = make([]shard, cfg.Shards)
	for i := range m.shards {
		m.shards[i].m = make(map[string]any)
	}
	if mux != nil {
		m.registerHandlers(mux)
	}
	return m
}

// RegisterOp installs a named mutator. Every node of the map must
// register the same ops before use.
func (m *Map) RegisterOp(name string, fn OpFunc) {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	m.ops[name] = fn
}

// Owner returns the owner node for key; the empty string means "self"
// (single-node map).
func (m *Map) Owner(key string) string {
	m.memberMu.RLock()
	defer m.memberMu.RUnlock()
	if len(m.cfg.Nodes) == 0 {
		return m.cfg.Self
	}
	best := ""
	var bestW uint64
	for _, n := range m.cfg.Nodes {
		w := hrw(key, n)
		if best == "" || w > bestW || (w == bestW && n < best) {
			best, bestW = n, w
		}
	}
	return best
}

func (m *Map) local(key string) bool {
	o := m.Owner(key)
	return o == "" || o == m.cfg.Self
}

func (m *Map) shardOf(key string) *shard {
	return &m.shards[int(fnv(key)%uint64(len(m.shards)))]
}

// Get returns the value for key and whether it exists.
func (m *Map) Get(key string) (any, bool, error) {
	if m.local(key) {
		s := m.shardOf(key)
		s.mu.RLock()
		v, ok := s.m[key]
		s.mu.RUnlock()
		return v, ok, nil
	}
	return m.remoteGet(key)
}

// Put stores val under key.
func (m *Map) Put(key string, val any) error {
	if m.local(key) {
		m.localPut(key, val, true)
		return nil
	}
	return m.remotePut(key, val)
}

func (m *Map) localPut(key string, val any, logIt bool) {
	s := m.shardOf(key)
	s.mu.Lock()
	s.m[key] = val
	s.mu.Unlock()
	if logIt && m.cfg.WAL != nil {
		m.cfg.WAL.logPut(m.cfg.Name, key, val)
	}
}

// Delete removes key.
func (m *Map) Delete(key string) error {
	if m.local(key) {
		m.localDelete(key, true)
		return nil
	}
	return m.remoteDelete(key)
}

func (m *Map) localDelete(key string, logIt bool) {
	s := m.shardOf(key)
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
	if logIt && m.cfg.WAL != nil {
		m.cfg.WAL.logDelete(m.cfg.Name, key)
	}
}

// Apply atomically applies the named op to key at its owner and returns
// the new value.
func (m *Map) Apply(key, op string, arg []byte) (any, error) {
	if m.local(key) {
		return m.localApply(key, op, arg)
	}
	return m.remoteApply(key, op, arg)
}

func (m *Map) localApply(key, op string, arg []byte) (any, error) {
	m.opMu.RLock()
	fn := m.ops[op]
	m.opMu.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("dhm: unknown op %q", op)
	}
	s := m.shardOf(key)
	s.mu.Lock()
	cur := s.m[key]
	next := fn(cur, arg)
	if next == nil {
		delete(s.m, key)
	} else {
		s.m[key] = next
	}
	s.mu.Unlock()
	if m.cfg.WAL != nil {
		if next == nil {
			m.cfg.WAL.logDelete(m.cfg.Name, key)
		} else {
			m.cfg.WAL.logPut(m.cfg.Name, key, next)
		}
	}
	return next, nil
}

// LocalKeys returns the keys whose shards live on this node.
func (m *Map) LocalKeys() []string {
	var out []string
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for k := range s.m {
			out = append(out, k)
		}
		s.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// LocalLen returns the number of locally stored keys.
func (m *Map) LocalLen() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every local key/value until fn returns false. The
// shard lock is held during fn; fn must not call back into the map.
func (m *Map) Range(fn func(key string, val any) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

// ---- remote plumbing ----

func (m *Map) peer(node string) (comm.Peer, error) {
	if m.cfg.Dialer == nil {
		return nil, fmt.Errorf("dhm: no dialer configured for remote owner %q", node)
	}
	m.peerMu.Lock()
	defer m.peerMu.Unlock()
	if p, ok := m.peers[node]; ok {
		return p, nil
	}
	p := m.cfg.Dialer.Dial(node)
	m.peers[node] = p
	return p, nil
}

// remote sends one RPC's request head to key's owner and returns the
// response head.
func (m *Map) remote(rpc int, key string, req []byte) ([]byte, error) {
	p, err := m.peer(m.Owner(key))
	if err != nil {
		return nil, err
	}
	return p.Request(m.msgTypes[rpc], req)
}

// newReq starts a request head sized for a typical key.
func newReq(key, op string, arg []byte) []byte {
	return appendReq(make([]byte, 0, 128), key, op, arg)
}

func (m *Map) remoteGet(key string) (any, bool, error) {
	raw, err := m.remote(rpcGet, key, newReq(key, "", nil))
	if err != nil {
		return nil, false, err
	}
	return parseResp(raw)
}

func (m *Map) remotePut(key string, val any) error {
	req, err := appendValue(newReq(key, "", nil), val)
	if err != nil {
		return err
	}
	_, err = m.remote(rpcPut, key, req)
	return err
}

func (m *Map) remoteDelete(key string) error {
	_, err := m.remote(rpcDel, key, newReq(key, "", nil))
	return err
}

func (m *Map) remoteApply(key, op string, arg []byte) (any, error) {
	raw, err := m.remote(rpcApply, key, newReq(key, op, arg))
	if err != nil {
		return nil, err
	}
	v, _, err := parseResp(raw)
	return v, err
}

func (m *Map) registerHandlers(mux *comm.Mux) {
	mux.Register(m.msgTypes[rpcGet], m.serveGet)
	mux.Register(m.msgTypes[rpcPut], m.servePut)
	mux.Register(m.msgTypes[rpcDel], m.serveDel)
	mux.Register(m.msgTypes[rpcApply], m.serveApply)
}

//hfetch:hotpath
func (m *Map) serveGet(raw []byte) ([]byte, error) {
	req, err := parseReq(raw)
	if err != nil {
		return nil, err
	}
	s := m.shardOf(req.key)
	s.mu.RLock()
	v, ok := s.m[req.key]
	s.mu.RUnlock()
	return appendResp(make([]byte, 0, 64), ok, v)
}

//hfetch:hotpath
func (m *Map) servePut(raw []byte) ([]byte, error) {
	req, err := parseReq(raw)
	if err != nil {
		return nil, err
	}
	v, err := parseValue(req.val)
	if err != nil {
		return nil, err
	}
	m.localPut(req.key, v, true)
	return nil, nil
}

//hfetch:hotpath
func (m *Map) serveDel(raw []byte) ([]byte, error) {
	req, err := parseReq(raw)
	if err != nil {
		return nil, err
	}
	m.localDelete(req.key, true)
	return nil, nil
}

//hfetch:hotpath
func (m *Map) serveApply(raw []byte) ([]byte, error) {
	req, err := parseReq(raw)
	if err != nil {
		return nil, err
	}
	next, err := m.localApply(req.key, req.op, req.arg)
	if err != nil {
		return nil, err
	}
	return appendResp(make([]byte, 0, 64), next != nil, next)
}

// ---- hashing ----

func fnv(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// hrw computes the rendezvous weight of (key, node). The two hashes are
// combined through a strong finalizer so short node names still produce
// well-distributed weights.
func hrw(key, node string) uint64 {
	z := fnv(key) ^ (fnv(node) * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
