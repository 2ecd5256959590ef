// Package dhm implements the distributed hashmap HFetch keeps its
// segment statistics and segment-to-tier mappings in (the paper uses
// HCL, the Hermes Container Library [43]). It provides:
//
//   - O(1) concurrent insertion and querying via lock-striped shards;
//   - node-level partitioning: every key has a single owner node chosen
//     by highest-random-weight (rendezvous) hashing, so updates are
//     visible cluster-wide without a global synchronization barrier;
//   - one comparable key type, Key{File, Index}: the segment identity
//     the rest of the tree already uses. A key is hashed once per
//     operation and that hash picks both the owner and the lock stripe;
//     it crosses the wire as file | varint index and becomes text only
//     at rest (the WAL) and in diagnostics;
//   - atomic read-modify-write through named, pre-registered operations
//     (closures cannot cross the wire, so mutators are registered on
//     every node and invoked by name at the owner — the same server-side
//     operation model HCL uses). An operation may mutate the stored value
//     in place and answers in bytes it appends while the shard lock is
//     held, so the value itself never has to leave its lock;
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
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hfetch/internal/comm"
)

// Key addresses one entry: a file and a segment index. It has seg.ID's
// shape, so a segment identity converts with Key(id) and no text is
// built between an access event and the shard holding its record.
type Key struct {
	File  string
	Index int64
}

// StringKey is the Key of a plain string: what Get, Put, Delete and
// Apply address.
func StringKey(s string) Key { return Key{File: s, Index: -1} }

// Op is a named mutator. It runs under the key's shard lock with the
// current value (nil if the key is absent), an opaque argument and the
// caller's result buffer. It returns the new value — cur itself, mutated
// in place, is allowed; nil deletes the key — and res with whatever the
// caller needs to know appended: that answer is all of the value that
// leaves the lock. arg and res are only valid during the call.
type Op func(cur any, arg, res []byte) (next any, out []byte)

// OpFunc is the copy-on-write form of a mutator: it answers with the new
// value itself, so it must never mutate cur — a value it has returned
// may be in a reader's hands.
type OpFunc func(cur any, arg []byte) any

// opEntry is one row of the op table. plain marks an OpFunc, whose new
// value may be handed to the caller as it is.
type opEntry struct {
	fn    Op
	plain bool
}

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
	// members is the current membership, replaced whole by Rebalance
	// while owner lookups read it: every operation looks its owner up,
	// and a lock here was a quarter of a local Get.
	members atomic.Pointer[membership]
	shards  []shard

	// ops is the op table, replaced whole by a registration (opMu orders
	// the writers) and read with one load per apply, like members.
	opMu sync.Mutex
	ops  atomic.Pointer[map[string]opEntry]

	peerMu sync.Mutex
	peers  map[string]comm.Peer

	// msgTypes are the four RPC message types, built once: the name
	// concatenation is off the per-call path.
	msgTypes [4]string
}

// membership is an immutable member list with each name's rendezvous
// hash, computed when the list is set instead of on every lookup.
type membership struct {
	names  []string
	hashes []uint64
}

const (
	rpcGet = iota
	rpcPut
	rpcDel
	rpcApply
)

type shard struct {
	mu sync.RWMutex
	m  map[Key]any
}

// New creates a Map and, when mux is non-nil, registers its remote
// handlers so other nodes can reach this one's shards.
func New(cfg Config, mux *comm.Mux) *Map {
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	m := &Map{
		cfg:   cfg,
		peers: make(map[string]comm.Peer),
	}
	m.ops.Store(&map[string]opEntry{})
	m.setMembers(cfg.Nodes)
	for i, op := range [...]string{rpcGet: "get", rpcPut: "put", rpcDel: "del", rpcApply: "apply"} {
		m.msgTypes[i] = "dhm." + cfg.Name + "." + op
	}
	m.shards = make([]shard, cfg.Shards)
	for i := range m.shards {
		m.shards[i].m = make(map[Key]any)
	}
	if mux != nil {
		m.registerHandlers(mux)
	}
	return m
}

// setMembers installs a copy of nodes as the membership.
func (m *Map) setMembers(nodes []string) {
	ms := &membership{names: append([]string(nil), nodes...), hashes: make([]uint64, len(nodes))}
	for i, n := range ms.names {
		ms.hashes[i] = hashString(n) * 0x9e3779b97f4a7c15
	}
	m.members.Store(ms)
}

// RegisterResultOp installs a named mutator. Every node of the map must
// register the same ops before use.
func (m *Map) RegisterResultOp(name string, fn Op) { m.register(name, opEntry{fn: fn}) }

// RegisterOp installs a copy-on-write mutator: the Op whose answer is
// the new value itself — returned by ApplyKey at the owner, encoded for a
// remote caller and for ApplyResult, outside the lock because nothing
// changes it again.
func (m *Map) RegisterOp(name string, fn OpFunc) {
	m.register(name, opEntry{plain: true, fn: func(cur any, arg, res []byte) (any, []byte) {
		return fn(cur, arg), res
	}})
}

func (m *Map) register(name string, e opEntry) {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	ops := maps.Clone(*m.ops.Load())
	ops[name] = e
	m.ops.Store(&ops)
}

// op looks name up in the current op table; an unknown name has no fn.
func (m *Map) op(name string) opEntry { return (*m.ops.Load())[name] }

// Owner returns the owner node for k; the empty string means "self"
// (single-node map).
func (m *Map) Owner(k Key) string {
	return m.ownerOf(k.hash())
}

// ownerOf picks the rendezvous owner of a key hash: the member whose
// weight mix(h ^ nodeHash) is highest, the smaller name on a tie.
//
//hfetch:hotpath
func (m *Map) ownerOf(h uint64) string {
	ms := m.members.Load()
	best := m.cfg.Self
	var bestW uint64
	for i, n := range ms.names {
		w := mix(h ^ ms.hashes[i])
		if i == 0 || w > bestW || (w == bestW && n < best) {
			best, bestW = n, w
		}
	}
	return best
}

// locate hashes k once and returns the shard that holds it when this
// node owns it, or the owner to forward to.
//
//hfetch:hotpath
func (m *Map) locate(k Key) (s *shard, owner string) {
	h := k.hash()
	if o := m.ownerOf(h); o != "" && o != m.cfg.Self {
		return nil, o
	}
	return m.shardAt(h), ""
}

func (m *Map) shardAt(h uint64) *shard {
	return &m.shards[int(h%uint64(len(m.shards)))]
}

// Get, Put, Delete and Apply address a plain string key: the entry
// StringKey(key) names.
func (m *Map) Get(key string) (any, bool, error) { return m.GetKey(StringKey(key)) }
func (m *Map) Put(key string, val any) error     { return m.PutKey(StringKey(key), val) }
func (m *Map) Delete(key string) error           { return m.DeleteKey(StringKey(key)) }
func (m *Map) Apply(key, op string, arg []byte) (any, error) {
	return m.ApplyKey(StringKey(key), op, arg)
}

// GetKey returns the value for k and whether it exists. At the owner
// that is the stored value itself: read a value some Op mutates in place
// through ViewKey instead.
//
//hfetch:hotpath
func (m *Map) GetKey(k Key) (any, bool, error) {
	s, owner := m.locate(k)
	if s == nil {
		return m.remoteGet(owner, k)
	}
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok, nil
}

// ViewKey calls fn with k's value, if it exists, while the shard's read
// lock is held (on the decoded copy when the owner is remote). fn copies
// out what it needs: it must not keep val or call back into the map.
func (m *Map) ViewKey(k Key, fn func(val any)) (bool, error) {
	s, owner := m.locate(k)
	if s == nil {
		v, ok, err := m.remoteGet(owner, k)
		if ok {
			fn(v)
		}
		return ok, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[k]
	if ok {
		fn(v)
	}
	return ok, nil
}

// PutKey stores val under k.
func (m *Map) PutKey(k Key, val any) error {
	s, owner := m.locate(k)
	if s == nil {
		return m.remotePut(owner, k, val)
	}
	m.localPut(s, k, val, true)
	return nil
}

func (m *Map) localPut(s *shard, k Key, val any, logIt bool) {
	logIt = logIt && m.cfg.WAL != nil
	var rec []byte
	s.mu.Lock()
	s.m[k] = val
	if logIt {
		rec = encodePut(m.cfg.Name, k, val)
	}
	s.mu.Unlock()
	if logIt {
		m.cfg.WAL.write(rec)
	}
}

// DeleteKey removes k.
func (m *Map) DeleteKey(k Key) error {
	s, owner := m.locate(k)
	if s == nil {
		return m.remoteDelete(owner, k)
	}
	m.localDelete(s, k)
	return nil
}

func (m *Map) localDelete(s *shard, k Key) {
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
	if m.cfg.WAL != nil {
		m.cfg.WAL.logDelete(m.cfg.Name, k)
	}
}

// ApplyKey atomically applies the named op to k at its owner and
// returns the new value. It is the call for OpFunc ops; for an Op that
// answers in bytes it returns nil (the value stays under its lock) — use
// ApplyResult.
//
//hfetch:hotpath
func (m *Map) ApplyKey(k Key, op string, arg []byte) (any, error) {
	s, owner := m.locate(k)
	if s == nil {
		found, out, err := m.remoteApply(owner, k, op, arg)
		if err != nil || !found || !m.op(op).plain {
			return nil, err
		}
		return parseValue(out)
	}
	next, plain, _, err := m.localApply(s, k, op, arg, nil)
	if !plain {
		next = nil
	}
	return next, err
}

// ApplyResult atomically applies the named op to k at its owner and
// returns res with the op's answer appended: the same bytes whether the
// owner is this node or a remote one.
//
//hfetch:hotpath
func (m *Map) ApplyResult(k Key, op string, arg, res []byte) ([]byte, error) {
	s, owner := m.locate(k)
	if s == nil {
		_, out, err := m.remoteApply(owner, k, op, arg)
		return append(res, out...), err
	}
	next, plain, out, err := m.localApply(s, k, op, arg, res)
	if plain && next != nil {
		return appendValue(out, next)
	}
	return out, err
}

// localApply runs op on k under its shard lock. Everything that leaves
// the lock is built inside it: the op's answer and the WAL record. next
// is for the caller to test against nil; only the value of a plain op
// (an OpFunc, which never changes it again) may be handed on.
//
//hfetch:hotpath
func (m *Map) localApply(s *shard, k Key, op string, arg, res []byte) (next any, plain bool, out []byte, err error) {
	e := m.op(op)
	if e.fn == nil {
		return nil, false, res, unknownOp(op)
	}
	var rec []byte
	s.mu.Lock()
	cur := s.m[k]
	next, out = e.fn(cur, arg, res)
	if next != nil {
		s.m[k] = next
		if m.cfg.WAL != nil {
			rec = encodePut(m.cfg.Name, k, next)
		}
	} else if cur != nil {
		delete(s.m, k)
	}
	s.mu.Unlock()
	if m.cfg.WAL != nil {
		if next != nil {
			m.cfg.WAL.write(rec)
		} else if cur != nil {
			m.cfg.WAL.logDelete(m.cfg.Name, k)
		}
	}
	return next, e.plain, out, nil
}

func unknownOp(op string) error { return fmt.Errorf("dhm: unknown op %q", op) }

// LocalKeys returns the keys whose shards live on this node, sorted by
// file, then index.
func (m *Map) LocalKeys() []Key {
	var out []Key
	m.Range(func(k Key, _ any) bool {
		out = append(out, k)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return a.File < b.File || (a.File == b.File && a.Index < b.Index)
	})
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
func (m *Map) Range(fn func(k Key, val any) bool) {
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

// remote sends one RPC's request head to owner and returns the response
// head.
func (m *Map) remote(rpc int, owner string, req []byte) ([]byte, error) {
	p, err := m.peer(owner)
	if err != nil {
		return nil, err
	}
	return p.Request(m.msgTypes[rpc], req)
}

// newReq starts a request head in a pooled buffer, released once the
// response is parsed (in process, a get answers in it).
func newReq(k Key, op string, arg []byte) *comm.HeadBuf {
	hb := comm.NewHeadBuf()
	hb.B = appendReq(hb.B, k, op, arg)
	return hb
}

func (m *Map) remoteGet(owner string, k Key) (any, bool, error) {
	req := newReq(k, "", nil)
	defer req.Release()
	raw, err := m.remote(rpcGet, owner, req.B)
	if err != nil {
		return nil, false, err
	}
	return parseResp(raw)
}

func (m *Map) remotePut(owner string, k Key, val any) error {
	req := newReq(k, "", nil)
	defer req.Release()
	var err error
	if req.B, err = appendValue(req.B, val); err == nil {
		_, err = m.remote(rpcPut, owner, req.B)
	}
	return err
}

func (m *Map) remoteDelete(owner string, k Key) error {
	req := newReq(k, "", nil)
	defer req.Release()
	_, err := m.remote(rpcDel, owner, req.B)
	return err
}

func (m *Map) remoteApply(owner string, k Key, op string, arg []byte) (found bool, out []byte, err error) {
	req := newReq(k, op, arg)
	defer req.Release()
	raw, err := m.remote(rpcApply, owner, req.B)
	if err != nil {
		return false, nil, err
	}
	return parseApplyResp(raw)
}

func (m *Map) registerHandlers(mux *comm.Mux) {
	mux.Register(m.msgTypes[rpcGet], m.serveGet)
	mux.Register(m.msgTypes[rpcPut], m.servePut)
	mux.Register(m.msgTypes[rpcDel], m.serveDel)
	mux.Register(m.msgTypes[rpcApply], m.serveApply)
}

// serveGet answers in its request's buffer, once the key aliasing it has
// been looked up.
//
//hfetch:hotpath
func (m *Map) serveGet(raw []byte) ([]byte, error) {
	req, err := parseReq(raw, false)
	if err != nil {
		return nil, err
	}
	s := m.shardAt(req.key.hash())
	// Encoded under the lock: an in-place op may change v once it is gone.
	s.mu.RLock()
	v, ok := s.m[req.key]
	resp, err := appendResp(raw[:0], ok, v)
	s.mu.RUnlock()
	return resp, err
}

// storedKey is a request's key with a file the map may keep.
func storedKey(k Key) Key { return Key{File: strings.Clone(k.File), Index: k.Index} }

//hfetch:hotpath
func (m *Map) servePut(raw []byte) ([]byte, error) {
	req, err := parseReq(raw, true)
	if err != nil {
		return nil, err
	}
	v, err := parseValue(req.val)
	if err != nil {
		return nil, err
	}
	m.localPut(m.shardAt(req.key.hash()), storedKey(req.key), v, true)
	return nil, nil
}

//hfetch:hotpath
func (m *Map) serveDel(raw []byte) ([]byte, error) {
	req, err := parseReq(raw, false)
	if err != nil {
		return nil, err
	}
	m.localDelete(m.shardAt(req.key.hash()), req.key)
	return nil, nil
}

//hfetch:hotpath
func (m *Map) serveApply(raw []byte) ([]byte, error) {
	req, err := parseReq(raw, false)
	if err != nil {
		return nil, err
	}
	// The response head is found u8 | answer: the op appends its answer
	// behind the byte, which is set once the op has returned a value.
	next, plain, resp, err := m.localApply(m.shardAt(req.key.hash()), storedKey(req.key), req.op, req.arg, make([]byte, 1, 64))
	if err != nil {
		return nil, err
	}
	if next != nil {
		if resp[0] = 1; plain {
			return appendValue(resp, next)
		}
	}
	return resp, nil
}

// ---- hashing ----

// hash is the one hash of a key: FNV-1a over the file, eight bytes a
// step, finalized together with the index. Owner selection and the lock
// stripe both derive from it.
//
//hfetch:hotpath
func (k Key) hash() uint64 {
	return mix(hashString(k.File) ^ uint64(k.Index)*0x9e3779b97f4a7c15)
}

//hfetch:hotpath
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		h = (h ^ w) * prime64
	}
	for ; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return h
}

// mix is a strong finalizer (splitmix64): short node names and
// consecutive indices still produce well-distributed weights.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
