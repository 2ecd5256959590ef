package dhm

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"hfetch/internal/comm"
)

func init() {
	gob.Register(map[string]int64{})
}

func single(t *testing.T) *Map {
	t.Helper()
	return New(Config{Name: "t", Self: "n0"}, nil)
}

func TestPutGetDeleteLocal(t *testing.T) {
	m := single(t)
	if err := m.Put("k", int64(42)); err != nil {
		t.Fatal(err)
	}
	v, ok, err := m.Get("k")
	if err != nil || !ok || v.(int64) != 42 {
		t.Fatalf("Get = %v %v %v", v, ok, err)
	}
	if err := m.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get("k"); ok {
		t.Fatal("key must be gone after Delete")
	}
}

func TestApplyLocal(t *testing.T) {
	m := single(t)
	m.RegisterOp("inc", func(cur any, arg []byte) any {
		var c int64
		if cur != nil {
			c = cur.(int64)
		}
		return c + int64(binary.BigEndian.Uint32(arg))
	})
	arg := make([]byte, 4)
	binary.BigEndian.PutUint32(arg, 5)
	v, err := m.Apply("c", "inc", arg)
	if err != nil || v.(int64) != 5 {
		t.Fatalf("Apply = %v %v", v, err)
	}
	v, _ = m.Apply("c", "inc", arg)
	if v.(int64) != 10 {
		t.Fatalf("second Apply = %v, want 10", v)
	}
}

func TestApplyUnknownOp(t *testing.T) {
	m := single(t)
	if _, err := m.Apply("k", "nope", nil); err == nil {
		t.Fatal("unknown op must error")
	}
}

func TestApplyNilDeletes(t *testing.T) {
	m := single(t)
	m.Put("k", int64(1))
	m.RegisterOp("del", func(cur any, arg []byte) any { return nil })
	if _, err := m.Apply("k", "del", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get("k"); ok {
		t.Fatal("nil-returning op must delete the key")
	}
}

func TestLocalKeysAndLen(t *testing.T) {
	m := single(t)
	for i := 0; i < 10; i++ {
		m.Put(fmt.Sprintf("k%02d", i), i)
	}
	if m.LocalLen() != 10 {
		t.Fatalf("LocalLen = %d, want 10", m.LocalLen())
	}
	keys := m.LocalKeys()
	if len(keys) != 10 || keys[0] != StringKey("k00") || keys[9] != StringKey("k09") {
		t.Fatalf("LocalKeys = %v", keys)
	}
}

func TestRange(t *testing.T) {
	m := single(t)
	for i := 0; i < 5; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	count := 0
	m.Range(func(k Key, v any) bool { count++; return true })
	if count != 5 {
		t.Fatalf("Range visited %d, want 5", count)
	}
	count = 0
	m.Range(func(k Key, v any) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early-exit Range visited %d, want 2", count)
	}
}

func TestOwnerStableAndBalanced(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	m := New(Config{Name: "t", Self: "a", Nodes: nodes}, nil)
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("key-%d", i)
		o1 := m.Owner(StringKey(k))
		o2 := m.Owner(StringKey(k))
		if o1 != o2 {
			t.Fatal("Owner must be deterministic")
		}
		counts[o1]++
	}
	for _, n := range nodes {
		if counts[n] < 500 {
			t.Fatalf("unbalanced partition: %v", counts)
		}
	}
}

func TestOwnerMinimalReshuffle(t *testing.T) {
	// Rendezvous hashing: removing a node must only move that node's keys.
	all := []string{"a", "b", "c", "d"}
	m1 := New(Config{Name: "t", Self: "a", Nodes: all}, nil)
	m2 := New(Config{Name: "t", Self: "a", Nodes: []string{"a", "b", "c"}}, nil)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		o1 := m1.Owner(StringKey(k))
		if o1 != "d" && m2.Owner(StringKey(k)) != o1 {
			t.Fatalf("key %q moved from %q to %q although its owner survived", k, o1, m2.Owner(StringKey(k)))
		}
	}
}

// peerSet is the tests' comm.Peers: one connection per name, dialed on
// first use and kept until dropped, as cluster.Membership keeps its own.
type peerSet struct {
	dial  func(node string) (comm.Peer, error)
	mu    sync.Mutex
	peers map[string]comm.Peer
}

func (s *peerSet) Peer(node string) (comm.Peer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.peers[node]; ok {
		return p, nil
	}
	p, err := s.dial(node)
	if err == nil {
		if s.peers == nil {
			s.peers = make(map[string]comm.Peer)
		}
		s.peers[node] = p
	}
	return p, err
}

func (s *peerSet) DropPeer(node string) {
	s.mu.Lock()
	p, ok := s.peers[node]
	delete(s.peers, node)
	s.mu.Unlock()
	if ok {
		p.Close()
	}
}

// inprocPeers is one node's peerSet over the in-process fabric.
func inprocPeers(net *comm.InprocNetwork) *peerSet {
	return &peerSet{dial: func(node string) (comm.Peer, error) { return net.Dial(node), nil }}
}

// cluster builds an n-node DHM over the in-process fabric.
func cluster(t *testing.T, n int) []*Map {
	t.Helper()
	net := comm.NewInprocNetwork(nil)
	names := nodeNames(n)
	maps := make([]*Map, n)
	for i, name := range names {
		mux := comm.NewMux()
		maps[i] = New(Config{Name: "t", Self: name, Nodes: names, Peers: inprocPeers(net)}, mux)
		net.Join(name, mux)
	}
	return maps
}

func TestDistributedPutGetAcrossNodes(t *testing.T) {
	maps := cluster(t, 3)
	// Write every key through node 0, read through node 2.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if err := maps[0].Put(k, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		v, ok, err := maps[2].Get(k)
		if err != nil || !ok || v.(int64) != int64(i) {
			t.Fatalf("Get(%q) via n2 = %v %v %v", k, v, ok, err)
		}
	}
	// Keys are partitioned: total across nodes equals 100, each node has some.
	total := 0
	for _, m := range maps {
		total += m.LocalLen()
	}
	if total != 100 {
		t.Fatalf("total local keys = %d, want 100", total)
	}
}

func TestDistributedDelete(t *testing.T) {
	maps := cluster(t, 3)
	maps[0].Put("k", int64(9))
	if err := maps[1].Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := maps[2].Get("k"); ok {
		t.Fatal("delete must be visible cluster-wide")
	}
}

func TestDistributedAtomicCounter(t *testing.T) {
	maps := cluster(t, 3)
	inc := func(cur any, arg []byte) any {
		var c int64
		if cur != nil {
			c = cur.(int64)
		}
		return c + 1
	}
	for _, m := range maps {
		m.RegisterOp("inc", inc)
	}
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := maps[w%len(maps)]
			for i := 0; i < per; i++ {
				if _, err := m.Apply("counter", "inc", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	v, ok, err := maps[0].Get("counter")
	if err != nil || !ok || v.(int64) != workers*per {
		t.Fatalf("counter = %v %v %v, want %d", v, ok, err, workers*per)
	}
}

func TestRemoteWithoutPeersFails(t *testing.T) {
	m := New(Config{Name: "t", Self: "a", Nodes: []string{"a", "zz"}}, nil)
	// Find a key owned by zz.
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		if m.Owner(StringKey(k)) == "zz" {
			if err := m.Put(k, int64(1)); err == nil {
				t.Fatal("remote put without peers must fail")
			}
			return
		}
	}
}

func TestWALReplayRestoresState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Name: "stats", Self: "n0", WAL: w}, nil)
	m.Put("a", int64(1))
	m.Put("b", int64(2))
	m.Put("a", int64(3)) // overwrite
	m.Delete("b")
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	state, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(Config{Name: "stats", Self: "n0"}, nil)
	m2.Restore(state)
	v, ok, _ := m2.Get("a")
	if !ok || v.(int64) != 3 {
		t.Fatalf("restored a = %v %v, want 3", v, ok)
	}
	if _, ok, _ := m2.Get("b"); ok {
		t.Fatal("deleted key must stay deleted after replay")
	}
}

func TestWALReplayToleratesTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _ := OpenWAL(path)
	m := New(Config{Name: "s", Self: "n0", WAL: w}, nil)
	m.Put("a", int64(1))
	w.Close()
	// Simulate a torn write: append garbage header + partial body.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{0, 0, 1, 0, 0xde, 0xad})
	f.Close()
	state, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := state["s"][StringKey("a")]; v.(int64) != 1 {
		t.Fatalf("state after torn write = %v, want a=1", state)
	}
}

func TestWALApplyLogged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _ := OpenWAL(path)
	m := New(Config{Name: "s", Self: "n0", WAL: w}, nil)
	m.RegisterOp("set9", func(cur any, arg []byte) any { return int64(9) })
	m.Apply("k", "set9", nil)
	w.Close()
	state, _ := Replay(path)
	if v := state["s"][StringKey("k")]; v == nil || v.(int64) != 9 {
		t.Fatalf("applied value not in WAL: %v", state)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	m := single(t)
	m.RegisterOp("inc", func(cur any, arg []byte) any {
		var c int64
		if cur != nil {
			c = cur.(int64)
		}
		return c + 1
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k%d", i%17)
				switch i % 3 {
				case 0:
					m.Apply(k, "inc", nil)
				case 1:
					m.Get(k)
				default:
					m.Put(fmt.Sprintf("p%d-%d", w, i), i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// Property: Get returns exactly what Put stored, for arbitrary string
// keys and integer values.
func TestPutGetRoundTripProperty(t *testing.T) {
	m := single(t)
	f := func(key string, val int64) bool {
		if err := m.Put(key, val); err != nil {
			return false
		}
		v, ok, err := m.Get(key)
		return err == nil && ok && v.(int64) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceMigratesDepartedKeys(t *testing.T) {
	maps := cluster(t, 3)
	for i := 0; i < 200; i++ {
		maps[0].Put(fmt.Sprintf("key-%d", i), int64(i))
	}
	// Node n2 departs: n0 and n1 rebalance to the survivor set.
	survivors := []string{"n0", "n1"}
	// n2's keys are lost with it (no replication); survivors re-home
	// their own keys, which for rendezvous hashing means none move
	// between survivors — only the *ownership* of n2's keys changes.
	m0, _ := maps[0].Rebalance(survivors)
	m1, _ := maps[1].Rebalance(survivors)
	if m0 != 0 || m1 != 0 {
		t.Fatalf("survivor keys moved (%d, %d); rendezvous hashing must not reshuffle them", m0, m1)
	}
	// Keys that lived on survivors remain readable from either node.
	found := 0
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%d", i)
		if v, ok, err := maps[1].Get(k); err == nil && ok && v.(int64) == int64(i) {
			found++
		}
	}
	if found == 0 || found == 200 {
		t.Fatalf("found = %d, want the survivors' share (0 < n < 200)", found)
	}
}

func TestRebalanceJoinPushesKeys(t *testing.T) {
	net := comm.NewInprocNetwork(nil)
	names := []string{"n0", "n1"}
	mux0, mux1 := comm.NewMux(), comm.NewMux()
	m0 := New(Config{Name: "t", Self: "n0", Nodes: []string{"n0"}, Peers: inprocPeers(net)}, mux0)
	net.Join("n0", mux0)
	for i := 0; i < 100; i++ {
		m0.Put(fmt.Sprintf("key-%d", i), int64(i))
	}
	// n1 joins.
	m1 := New(Config{Name: "t", Self: "n1", Nodes: names, Peers: inprocPeers(net)}, mux1)
	net.Join("n1", mux1)
	migrated, err := m0.Rebalance(names)
	if err != nil {
		t.Fatal(err)
	}
	if migrated == 0 {
		t.Fatal("a joining node must claim some keys")
	}
	if m1.LocalLen() != migrated {
		t.Fatalf("n1 holds %d keys, expected %d migrated", m1.LocalLen(), migrated)
	}
	// Everything stays readable from both nodes.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		v, ok, err := m1.Get(k)
		if err != nil || !ok || v.(int64) != int64(i) {
			t.Fatalf("key %q unreadable after join: %v %v %v", k, v, ok, err)
		}
	}
	if got := m0.Members(); len(got) != 2 {
		t.Fatalf("members = %v", got)
	}
}
