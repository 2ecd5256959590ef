package cluster

import (
	"errors"
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

func fastTimings() (hb, suspect, dead time.Duration) {
	return 10 * time.Millisecond, 40 * time.Millisecond, 100 * time.Millisecond
}

// newAgent builds one membership agent on the in-process network.
func newAgent(net *comm.InprocNetwork, self string, seeds []string, onChange func([]string)) *Membership {
	hb, sus, dead := fastTimings()
	mux := comm.NewMux()
	m := NewMembership(MembershipConfig{
		Self: self, Addr: self, Seeds: seeds,
		HeartbeatInterval: hb, SuspectAfter: sus, DeadAfter: dead,
		Dial:     func(addr string) (comm.Peer, error) { return net.Dial(addr), nil },
		OnChange: onChange,
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
// window and eventually report the peer suspect, degrading to PFS
// passthrough (ok=false) without further peer calls.
func TestFetcherBackoffAndSuspect(t *testing.T) {
	defer leakcheck.Slab(t)() // the shared view is a slab buffer: hit, error and stale answer all return it
	net := comm.NewInprocNetwork(nil)
	mem := staticMembership(net, "n0", "n1")
	fc := &fakeCaller{err: errors.New("conn refused")}
	f := NewFetcher(FetcherConfig{
		BackoffBase:  time.Hour, // one failure must gate the next attempt
		SuspectAfter: 1,
	}, mem, fc)

	buf := make([]byte, 8)
	id := seg.ID{File: "/f", Index: 0}
	if _, ok := f.ReadRemote("n1", "ram", id, 0, buf); ok {
		t.Fatal("failed fetch reported ok")
	}
	// SuspectAfter=1: the single failure must have reported n1.
	if mem.Usable("n1") {
		t.Fatal("peer not suspected after threshold failures")
	}
	calls := fc.count()
	if _, ok := f.ReadRemote("n1", "ram", id, 0, buf); ok {
		t.Fatal("gated fetch reported ok")
	}
	if fc.count() != calls {
		t.Fatal("cooldown window did not gate the second attempt")
	}
}

// TestFetcherStaleMappingIsNotFailure checks a clean "not resident"
// answer does not penalize the peer.
func TestFetcherStaleMappingIsNotFailure(t *testing.T) {
	defer leakcheck.Slab(t)() // the shared view is a slab buffer: hit, error and stale answer all return it
	net := comm.NewInprocNetwork(nil)
	mem := staticMembership(net, "n0", "n1")
	fc := &fakeCaller{ok: false}
	f := NewFetcher(FetcherConfig{SuspectAfter: 1}, mem, fc)

	buf := make([]byte, 8)
	if _, ok := f.ReadRemote("n1", "ram", seg.ID{File: "/f"}, 0, buf); ok {
		t.Fatal("stale mapping reported ok")
	}
	if !mem.Usable("n1") {
		t.Fatal("stale mapping must not suspect the peer")
	}
	// And no cooldown: the next attempt goes straight through.
	calls := fc.count()
	f.ReadRemote("n1", "ram", seg.ID{File: "/f"}, 0, buf)
	if fc.count() != calls+1 {
		t.Fatal("clean miss opened a cooldown window")
	}
}

type tcpDialer map[string]string

func (d tcpDialer) Dial(node string) comm.Peer {
	p, err := comm.DialTCPOpts(d[node], comm.PeerOptions{RequestTimeout: 10 * time.Second})
	if err != nil {
		panic(err)
	}
	return p
}

// TestFetcherReadAllocs guards the peer read end to end: a Fetcher with
// no membership over a reading server, a serving server behind TCP
// loopback, both in this process. What is left is the response head the
// reading side's transport hands its caller.
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
	dial := tcpDialer{"n0": ln.Addr()}
	n1.EnableRemote(comm.NewMux(), dial)
	f := NewFetcher(FetcherConfig{}, nil, n1)

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
	if got > 2 {
		t.Fatalf("a 64 KiB Fetcher read over TCP costs %.1f allocs, budget 2", got)
	}
}

type recSink struct {
	mu     sync.Mutex
	ups    []auditor.Update
	invals []string
}

func (s *recSink) ScoreUpdated(u auditor.Update) {
	s.mu.Lock()
	s.ups = append(s.ups, u)
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

// TestRouterPartitionsByOrigin checks local-origin updates go to the
// local engine while foreign-origin updates are shipped to the origin
// node and delivered there with origin cleared.
func TestRouterPartitionsByOrigin(t *testing.T) {
	net := comm.NewInprocNetwork(nil)
	mem0 := staticMembership(net, "n0", "n1")
	mem1 := staticMembership(net, "n1", "n0")

	sink0, sink1 := &recSink{}, &recSink{}
	mux0, mux1 := comm.NewMux(), comm.NewMux()
	net.Join("n0", mux0)
	net.Join("n1", mux1)
	r0 := NewRouter("n0", sink0, mem0, mux0, nil)
	NewRouter("n1", sink1, mem1, mux1, nil)

	r0.ScoreBatch([]auditor.Update{
		{ID: seg.ID{File: "/a", Index: 0}, Score: 1},                // local (empty origin)
		{ID: seg.ID{File: "/a", Index: 1}, Score: 2, Origin: "n0"},  // local (self)
		{ID: seg.ID{File: "/b", Index: 0}, Score: 3, Origin: "n1"},  // foreign
		{ID: seg.ID{File: "/b", Index: 1}, Score: 4, Origin: "nXX"}, // unknown → local fallback
	})

	deadline := time.Now().Add(2 * time.Second)
	for len(sink1.updates()) < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("foreign update never arrived at n1; n1 got %v", sink1.updates())
		}
		time.Sleep(2 * time.Millisecond)
	}
	got1 := sink1.updates()
	if len(got1) != 1 || got1[0].Score != 3 || got1[0].Origin != "" {
		t.Fatalf("n1 updates = %+v, want one score-3 update with origin cleared", got1)
	}
	got0 := sink0.updates()
	if len(got0) != 3 {
		t.Fatalf("n0 updates = %+v, want 3 (two local + unknown-origin fallback)", got0)
	}
	for _, u := range got0 {
		if u.Score == 3 {
			t.Fatal("foreign update also delivered locally")
		}
	}
}

// TestRouterBroadcastsInvalidations checks a write invalidation reaches
// every peer exactly once (no re-broadcast loop).
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
	}
}
