package cluster

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/auditor"
	"hfetch/internal/core/seg"
	"hfetch/internal/core/server"
	"hfetch/internal/harness/leakcheck"
	"hfetch/internal/invariant"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

// fastHeartbeat is the tests' heartbeat: a member silent for 40 ms is
// suspect, for 100 ms dead.
const fastHeartbeat = 10 * time.Millisecond

// newAgent builds one membership agent on the in-process network.
func newAgent(net *comm.InprocNetwork, self string, seeds []string, onChange func([]string)) *Membership {
	mux := comm.NewMux()
	m := NewMembership(MembershipConfig{
		Self: self, Addr: self, Seeds: seeds,
		HeartbeatInterval: fastHeartbeat,
		Dial:              func(addr string) (comm.Peer, error) { return net.Dial(addr), nil },
		OnChange:          onChange,
	}, mux)
	net.Join(self, mux)
	return m
}

// TestMembershipConvergesFromSeed boots three nodes that only know one
// seed and checks they all converge on the full view; then one node is
// killed and the survivors age it to dead and shrink the view.
func TestMembershipConvergesFromSeed(t *testing.T) {
	net := comm.NewInprocNetwork(nil)
	names := []string{"n0", "n1", "n2"}
	var agents []*Membership
	for _, name := range names {
		var seeds []string
		if name != "n0" {
			seeds = []string{"n0"}
		}
		agents = append(agents, newAgent(net, name, seeds, nil))
	}
	for _, a := range agents {
		a.Start()
	}
	defer func() {
		for _, a := range agents {
			a.Stop()
		}
	}()

	for _, a := range agents {
		if !a.WaitView(3, 3*time.Second) {
			t.Fatalf("%s: view did not converge to 3, got %v", a.Self(), a.View())
		}
	}

	// Kill n2: off the network, agent stopped. Survivors must converge
	// on a 2-member view (n2 aged to dead).
	agents[2].Stop()
	net.Leave("n2")
	for _, a := range agents[:2] {
		if !a.WaitView(2, 3*time.Second) {
			t.Fatalf("%s: view did not shrink after kill, got %v", a.Self(), a.View())
		}
		if st, ok := a.StateOf("n2"); !ok || st != StateDead {
			t.Fatalf("%s: n2 state = %v, want dead", a.Self(), st)
		}
	}
}

// TestMembershipViewChangeCallback checks OnChange fires with the new
// sorted view when a member joins.
func TestMembershipViewChangeCallback(t *testing.T) {
	net := comm.NewInprocNetwork(nil)
	var mu sync.Mutex
	var views [][]string
	a0 := newAgent(net, "n0", nil, func(v []string) {
		mu.Lock()
		views = append(views, v)
		mu.Unlock()
	})
	a0.Start()
	defer a0.Stop()

	a1 := newAgent(net, "n1", []string{"n0"}, nil)
	a1.Start()
	defer a1.Stop()

	if !a0.WaitView(2, 3*time.Second) {
		t.Fatalf("n0 never saw n1: %v", a0.View())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(views) == 0 {
		t.Fatal("OnChange never fired")
	}
	last := views[len(views)-1]
	if len(last) != 2 || last[0] != "n0" || last[1] != "n1" {
		t.Fatalf("OnChange view = %v, want [n0 n1]", last)
	}
	if a0.ViewVersion() == 0 {
		t.Fatal("view version not bumped")
	}
}

// TestMembershipSuspectAndRecover checks the fetch path's suspect report
// and that heartbeats restore the member.
func TestMembershipSuspectAndRecover(t *testing.T) {
	net := comm.NewInprocNetwork(nil)
	a0 := newAgent(net, "n0", nil, nil)
	a1 := newAgent(net, "n1", []string{"n0"}, nil)
	a0.Start()
	a1.Start()
	defer a0.Stop()
	defer a1.Stop()
	if !a0.WaitView(2, 3*time.Second) {
		t.Fatal("no convergence")
	}

	a0.Suspect("n1")
	if st, _ := a0.StateOf("n1"); st != StateSuspect {
		t.Fatalf("state after Suspect = %v", st)
	}
	if a0.Usable("n1") {
		t.Fatal("suspect member must not be usable")
	}
	// n1 keeps heartbeating, so n0 must see it alive again.
	deadline := time.Now().Add(3 * time.Second)
	for !a0.Usable("n1") {
		if time.Now().After(deadline) {
			t.Fatal("suspect member never recovered despite live heartbeats")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// staticMembership returns an agent with pre-seeded alive members and no
// probing (fetcher/router unit tests).
func staticMembership(net *comm.InprocNetwork, self string, others ...string) *Membership {
	static := make(map[string]string)
	for _, o := range others {
		static[o] = o
	}
	mux := comm.NewMux()
	m := NewMembership(MembershipConfig{
		Self: self, Addr: self, Static: static,
		Dial: func(addr string) (comm.Peer, error) { return net.Dial(addr), nil },
	}, mux)
	net.Join(self, mux)
	return m
}

type fakeCaller struct {
	mu    sync.Mutex
	calls int
	delay time.Duration
	err   error
	ok    bool
	fill  byte
}

// ViewRemote answers like the server: the payload in a slab buffer the
// reply owns.
func (f *fakeCaller) ViewRemote(node, tier string, id seg.ID, off int64, length int) (comm.Reply, bool, error) {
	f.mu.Lock()
	f.calls++
	delay, err, ok, fill := f.delay, f.err, f.ok, f.fill
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return comm.Reply{}, false, err
	}
	if !ok {
		return comm.Reply{}, false, nil
	}
	b := tiers.NewBuf(tiers.SlabGet(int64(length)))
	p := b.Bytes()
	for i := range p {
		p[i] = fill
	}
	return comm.Reply{Body: p, Owner: b}, true, nil
}

func (f *fakeCaller) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// TestFetcherSingleFlight checks concurrent reads of one remote range
// share a single peer request.
func TestFetcherSingleFlight(t *testing.T) {
	defer leakcheck.Slab(t)() // the shared view is a slab buffer: hit, error and stale answer all return it
	net := comm.NewInprocNetwork(nil)
	mem := staticMembership(net, "n0", "n1")
	fc := &fakeCaller{delay: 30 * time.Millisecond, ok: true, fill: 7}
	f := NewFetcher(FetcherConfig{}, mem, fc)

	id := seg.ID{File: "/f", Index: 3}
	const readers = 16
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			if n, ok := f.ReadRemote("n1", "ram", id, 0, buf); ok {
				if n != 64 || buf[0] != 7 {
					t.Errorf("bad read: n=%d buf[0]=%d", n, buf[0])
				}
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	if served.Load() != readers {
		t.Fatalf("served %d/%d readers", served.Load(), readers)
	}
	if got := fc.count(); got != 1 {
		t.Fatalf("remote calls = %d, want 1 (single-flight)", got)
	}
}

// TestFetcherBackoffAndSuspect checks transport failures open a cooldown
// window that doubles per failure and, at suspectAfter consecutive
// failures, report the peer suspect, degrading to PFS passthrough
// (ok=false) without further peer calls.
func TestFetcherBackoffAndSuspect(t *testing.T) {
	defer leakcheck.Slab(t)() // the shared view is a slab buffer: hit, error and stale answer all return it
	net := comm.NewInprocNetwork(nil)
	mem := staticMembership(net, "n0", "n1")
	fc := &fakeCaller{err: errors.New("conn refused")}
	f := NewFetcher(FetcherConfig{}, mem, fc)

	buf := make([]byte, 8)
	id := seg.ID{File: "/f", Index: 0}
	backoff := backoffBase
	for i := 1; i <= suspectAfter; i++ {
		if !mem.Usable("n1") {
			t.Fatalf("peer suspected after %d of %d failures", i-1, suspectAfter)
		}
		if _, ok := f.ReadRemote("n1", "ram", id, 0, buf); ok {
			t.Fatal("failed fetch reported ok")
		}
		failed := time.Now()
		if got := fc.count(); got != i {
			t.Fatalf("failure %d made %d peer calls in all, want %d", i, got, i)
		}
		if i == suspectAfter {
			break
		}
		// Inside the cooldown the next attempt goes to the PFS unasked.
		if _, ok := f.ReadRemote("n1", "ram", id, 0, buf); ok {
			t.Fatal("gated fetch reported ok")
		}
		if fc.count() != i && time.Since(failed) < backoff {
			t.Fatalf("the cooldown after failure %d did not gate the next attempt", i)
		}
		time.Sleep(time.Until(failed.Add(backoff + 10*time.Millisecond)))
		backoff *= 2
	}
	if mem.Usable("n1") {
		t.Fatalf("peer not suspected after %d failures", suspectAfter)
	}
	calls := fc.count()
	if _, ok := f.ReadRemote("n1", "ram", id, 0, buf); ok {
		t.Fatal("fetch from a suspect peer reported ok")
	}
	if fc.count() != calls {
		t.Fatal("a suspect peer was asked")
	}
}

// TestFetcherStaleMappingIsNotFailure checks a clean "not resident"
// answer does not penalize the peer: suspectAfter of them in a row open
// no cooldown and report nothing to membership.
func TestFetcherStaleMappingIsNotFailure(t *testing.T) {
	defer leakcheck.Slab(t)() // the shared view is a slab buffer: hit, error and stale answer all return it
	net := comm.NewInprocNetwork(nil)
	mem := staticMembership(net, "n0", "n1")
	fc := &fakeCaller{ok: false}
	f := NewFetcher(FetcherConfig{}, mem, fc)

	buf := make([]byte, 8)
	for i := 1; i <= suspectAfter; i++ {
		if _, ok := f.ReadRemote("n1", "ram", seg.ID{File: "/f"}, 0, buf); ok {
			t.Fatal("stale mapping reported ok")
		}
		if fc.count() != i {
			t.Fatalf("stale answer %d: %d peer calls in all, want %d (a clean miss opened a cooldown)", i, fc.count(), i)
		}
	}
	if !mem.Usable("n1") {
		t.Fatal("stale mappings must not suspect the peer")
	}
}

// TestFetcherReadAllocs guards the peer read end to end: a Fetcher gated
// by a membership over a reading server, a serving server behind TCP
// loopback, both in this process. Nothing is left: the response head is
// a slab buffer, borrowed like the body until the reply's Release.
func TestFetcherReadAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("allocation counts are for the production build")
	}
	defer leakcheck.Slab(t)()
	fs := pfs.New(nil)
	build := func(node string) (*server.Server, *tiers.Store) {
		ram := tiers.NewStore("ram", 4<<20, nil)
		stats, maps := server.NewLocalMaps(node)
		srv, err := server.New(server.Config{Node: node, SegmentSize: 64 << 10}, fs, tiers.NewHierarchy(ram), stats, maps)
		if err != nil {
			t.Fatal(err)
		}
		return srv, ram
	}
	n0, ram0 := build("n0")
	n1, ram1 := build("n1")
	defer ram0.Clear()
	defer ram1.Clear()
	mux0 := comm.NewMux()
	n0.EnableRemote(mux0, nil)
	ln, err := comm.ListenTCP("127.0.0.1:0", mux0)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// n1's membership gates the fetcher and holds its one connection to
	// n0, as a fabric node's does.
	mem := NewMembership(MembershipConfig{
		Self: "n1", Addr: "n1", Static: map[string]string{"n0": ln.Addr()},
		Dial: func(addr string) (comm.Peer, error) {
			return comm.DialTCPOpts(addr, comm.PeerOptions{RequestTimeout: 10 * time.Second})
		},
	}, nil)
	defer mem.DropPeer("n0")
	n1.EnableRemote(comm.NewMux(), mem)
	f := NewFetcher(FetcherConfig{}, mem, n1)

	const size = 64 << 10
	id := seg.ID{File: "f", Index: 0}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := ram0.Put(id, payload); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, size)
	read := func() {
		if n, ok := f.ReadRemote("n0", "ram", id, 0, p); !ok || n != size || p[size-1] != payload[size-1] {
			t.Fatalf("read: n %d, ok %v", n, ok)
		}
	}
	read() // dial, first slab misses, the connection's first worker
	got := testing.AllocsPerRun(200, read)
	t.Logf("a 64 KiB Fetcher read over TCP: %.1f allocs", got)
	if got > 0 {
		t.Fatalf("a 64 KiB Fetcher read over TCP costs %.1f allocs, budget 0", got)
	}
}

type recSink struct {
	mu     sync.Mutex
	ups    []auditor.Update
	invals []string
}

func (s *recSink) ScoreBatch(ups []auditor.Update) {
	s.mu.Lock()
	s.ups = append(s.ups, ups...)
	s.mu.Unlock()
}
func (s *recSink) FileInvalidated(file string) {
	s.mu.Lock()
	s.invals = append(s.invals, file)
	s.mu.Unlock()
}
func (s *recSink) updates() []auditor.Update {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]auditor.Update(nil), s.ups...)
}
func (s *recSink) invalidations() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.invals...)
}

// TestRouterBroadcastsInvalidations checks a write invalidation reaches
// every peer exactly once (no re-broadcast loop), while a score batch
// goes to the local engine alone, unchanged.
func TestRouterBroadcastsInvalidations(t *testing.T) {
	net := comm.NewInprocNetwork(nil)
	mem0 := staticMembership(net, "n0", "n1", "n2")
	mem1 := staticMembership(net, "n1", "n0", "n2")
	mem2 := staticMembership(net, "n2", "n0", "n1")

	sinks := []*recSink{{}, {}, {}}
	muxes := []*comm.Mux{comm.NewMux(), comm.NewMux(), comm.NewMux()}
	for i, name := range []string{"n0", "n1", "n2"} {
		net.Join(name, muxes[i])
	}
	r0 := NewRouter("n0", sinks[0], mem0, muxes[0], nil)
	NewRouter("n1", sinks[1], mem1, muxes[1], nil)
	NewRouter("n2", sinks[2], mem2, muxes[2], nil)

	batch := []auditor.Update{{ID: seg.ID{File: "/data", Index: 1}, Score: 2, Size: 4096, Trace: 7, Ahead: true}}
	r0.ScoreBatch(batch)
	r0.FileInvalidated("/data")

	deadline := time.Now().Add(2 * time.Second)
	for len(sinks[1].invalidations()) < 1 || len(sinks[2].invalidations()) < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("invalidation not broadcast: n1=%v n2=%v",
				sinks[1].invalidations(), sinks[2].invalidations())
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // a loop would keep deliveries coming
	for i, s := range sinks {
		if got := s.invalidations(); len(got) != 1 || got[0] != "/data" {
			t.Fatalf("node %d invalidations = %v, want exactly [/data]", i, got)
		}
		want := batch
		if i != 0 {
			want = nil
		}
		if got := s.updates(); !slices.Equal(got, want) {
			t.Fatalf("node %d score updates = %+v, want %+v", i, got, want)
		}
	}
}

// TestPeerNeverDialsUnknownOrDeadMembers checks the guard every peer
// path relies on to fail fast: Peer of a member membership does not know,
// or has aged to dead, is an error and dials nothing, while an alive
// member is dialed once and its connection reused.
func TestPeerNeverDialsUnknownOrDeadMembers(t *testing.T) {
	net := comm.NewInprocNetwork(nil)
	var dials atomic.Int64
	mem := NewMembership(MembershipConfig{
		Self: "n0", Addr: "n0", Static: map[string]string{"n1": "n1", "n2": "n2"},
		HeartbeatInterval: 5 * time.Millisecond, // suspect after 20 ms, dead after 50 ms
		Dial: func(addr string) (comm.Peer, error) {
			dials.Add(1)
			return net.Dial(addr), nil
		},
	}, nil)
	for i := 0; i < 2; i++ {
		if _, err := mem.Peer("n1"); err != nil {
			t.Fatalf("alive member: %v", err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("two Peer calls to an alive member dialed %d times, want 1", got)
	}
	if _, err := mem.Peer("zz"); err == nil {
		t.Fatal("Peer of an unknown member returned a connection")
	}
	for st, _ := mem.StateOf("n2"); st != StateDead; st, _ = mem.StateOf("n2") {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := mem.Peer("n2"); err == nil {
		t.Fatal("Peer of a dead member returned a connection")
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("Peer of an unknown and a dead member dialed %d times, want none", got-1)
	}
}

// TestSteadyHeartbeatAllocs guards what a heartbeat costs once the view
// is steady: one tick of a two-node membership over TCP loopback, both
// ends in this process (so the answering node's allocations count too).
// What is left is the answer's buffer, which the transport sends after
// the handler returns, and the probe goroutine's closure. Before the
// member list, the parsed members, the view and the sent heartbeat were
// reused and parsed strings interned against the table, a tick cost 39.
func TestSteadyHeartbeatAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("allocation counts are for the production build")
	}
	dial := func(addr string) (comm.Peer, error) {
		return comm.DialTCPOpts(addr, comm.PeerOptions{RequestTimeout: 10 * time.Second})
	}
	mux0, mux1 := comm.NewMux(), comm.NewMux()
	ln0, err := comm.ListenTCP("127.0.0.1:0", mux0)
	if err != nil {
		t.Fatal(err)
	}
	defer ln0.Close()
	ln1, err := comm.ListenTCP("127.0.0.1:0", mux1)
	if err != nil {
		t.Fatal(err)
	}
	defer ln1.Close()
	keys := func() int64 { return 42 }
	m0 := NewMembership(MembershipConfig{Self: "n0", Addr: ln0.Addr(), Ops: "ops0", Static: map[string]string{"n1": ln1.Addr()}, Dial: dial, Keys: keys}, mux0)
	m1 := NewMembership(MembershipConfig{Self: "n1", Addr: ln1.Addr(), Ops: "ops1", Static: map[string]string{"n0": ln0.Addr()}, Dial: dial, Keys: keys}, mux1)
	defer m0.DropPeer("n1")
	defer m1.DropPeer("n0")
	for range 3 { // dial, learn the ops addresses, settle the view
		m0.tick()
		m1.tick()
	}
	if v := m0.View(); len(v) != 2 {
		t.Fatalf("view %v", v)
	}
	allocs := testing.AllocsPerRun(200, m0.tick)
	t.Logf("a steady-view heartbeat over TCP: %.1f allocs", allocs)
	if allocs > 2 {
		t.Fatalf("a steady-view heartbeat over TCP costs %.1f allocs, budget 2", allocs)
	}
	if v := m1.View(); len(v) != 2 || m1.members["n0"].ops != "ops0" {
		t.Fatalf("n1's view %v, n0's ops %q", v, m1.members["n0"].ops)
	}
}
