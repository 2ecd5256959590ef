package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/seg"
	"hfetch/internal/core/server"
	"hfetch/internal/dhm"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

// member is one fabric member assembled as node.go assembles it: a
// cluster.Node, its hashmaps and a server with one ram tier, on an
// in-process network under a peer address of its own.
type member struct {
	net  *comm.InprocNetwork
	addr string
	n    *Node
	srv  *server.Server
	ram  *tiers.Store
	maps *dhm.Map
}

func startMember(t *testing.T, net *comm.InprocNetwork, fs *pfs.FS, name, addr string, seeds ...string) *member {
	t.Helper()
	mux := comm.NewMux()
	n := New(Config{
		Self: name, Addr: addr, Seeds: seeds,
		HeartbeatInterval: fastHeartbeat,
		Mux:               mux,
		DialAddr:          func(a string) (comm.Peer, error) { return net.Dial(a), nil },
	})
	stats, maps, _, err := server.NewMaps(name, nil, n.Membership(), mux, "")
	if err != nil {
		t.Fatal(err)
	}
	ram := tiers.NewStore("ram", 4<<20, nil)
	srv, err := server.New(server.Config{Node: name, SegmentSize: 64 << 10}, fs, tiers.NewHierarchy(ram), stats, maps)
	if err != nil {
		t.Fatal(err)
	}
	n.Attach(srv, stats, maps)
	net.Join(addr, mux)
	srv.Start()
	n.Start()
	return &member{net: net, addr: addr, n: n, srv: srv, ram: ram, maps: maps}
}

// stop takes the member off the network as a crash would: no farewell.
func (m *member) stop() {
	m.n.Stop()
	m.net.Leave(m.addr)
	m.srv.Stop()
}

func eventually(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(3 * time.Second); !ok(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 3s", what)
		}
	}
}

// reachesOwner puts a fresh value on a key that from's hashmap places on
// owner, checks it landed in owner's own shards and reads it back
// through from.
func reachesOwner(t *testing.T, from, owner *member, round int) {
	t.Helper()
	var key string
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("k%d", i); from.maps.Owner(dhm.StringKey(k)) == owner.n.cfg.Self {
			key = k
		}
	}
	want := fmt.Sprintf("v%d", round)
	if err := from.maps.Put(key, want); err != nil {
		t.Fatalf("round %d: put on %s's key %q: %v", round, owner.n.cfg.Self, key, err)
	}
	if !slices.Contains(owner.maps.LocalKeys(), dhm.StringKey(key)) {
		t.Fatalf("round %d: key %q is not in %s's shards", round, key, owner.n.cfg.Self)
	}
	if got, ok, err := from.maps.Get(key); err != nil || !ok || got != want {
		t.Fatalf("round %d: get %q = %v, %v, %v; want %q", round, key, got, ok, err, want)
	}
}

// readsTier reads a segment resident in owner's ram tier through
// from's peer read.
func readsTier(t *testing.T, from, owner *member, round int) {
	t.Helper()
	id := seg.ID{File: "f", Index: int64(round)}
	payload := bytes.Repeat([]byte{byte(round + 1)}, 4096)
	if err := owner.ram.Put(id, payload); err != nil {
		t.Fatal(err)
	}
	rep, ok, err := from.srv.ViewRemote(owner.n.cfg.Self, "ram", id, 0, len(payload))
	if err != nil || !ok {
		t.Fatalf("round %d: peer read of %s's tier: ok %v, err %v", round, owner.n.cfg.Self, ok, err)
	}
	defer rep.Release()
	if !bytes.Equal(rep.Body, payload) {
		t.Fatalf("round %d: peer read returned the wrong bytes", round)
	}
}

// TestRestartedMemberIsReachedAtItsNewAddress restarts a member under
// the same name on a new peer address. The survivor already holds a
// connection to the old address; once membership has merged the new
// incarnation, its hashmap ops on keys the member owns and its peer reads
// of the member's tier must reach the new life, never the dead one.
func TestRestartedMemberIsReachedAtItsNewAddress(t *testing.T) {
	net := comm.NewInprocNetwork(nil)
	fs := pfs.New(nil)
	n0 := startMember(t, net, fs, "n0", "n0@1")
	defer n0.stop()
	n1 := startMember(t, net, fs, "n1", "n1@1", "n0@1")
	mem := n0.n.Membership()
	eventually(t, "n0 and n1 see each other", func() bool {
		return slices.Equal(mem.View(), []string{"n0", "n1"}) && slices.Equal(n1.n.Membership().View(), []string{"n0", "n1"})
	})
	incarnation := func() uint64 {
		for _, m := range mem.Members() {
			if m.Name == "n1" {
				return m.Incarnation
			}
		}
		return 0
	}
	first := incarnation()
	reachesOwner(t, n0, n1, 0)
	readsTier(t, n0, n1, 0)

	n1.stop()
	n1 = startMember(t, net, fs, "n1", "n1@2", "n0@1")
	defer n1.stop()
	eventually(t, "n0 merges n1's new life", func() bool {
		addr, _ := mem.AddrOf("n1")
		return addr == "n1@2" && mem.Usable("n1") && incarnation() > first &&
			slices.Equal(mem.View(), []string{"n0", "n1"}) && slices.Equal(n1.n.Membership().View(), []string{"n0", "n1"})
	})
	reachesOwner(t, n0, n1, 1)
	readsTier(t, n0, n1, 1)
}
