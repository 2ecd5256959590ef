package mover

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hfetch/internal/core/ioclient"
	"hfetch/internal/core/seg"
	"hfetch/internal/harness/leakcheck"
	"hfetch/internal/invariant"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

// drained fails the test unless Drain returns: the deadline is the test's
// way of saying "hung", never something a passing run comes near.
func drained(t *testing.T, m *Mover, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		m.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("%s: Drain still waiting after 10s: %+v\n%s", what, m.Stats(), buf[:runtime.Stack(buf, true)])
	}
}

// The swap cycle that used to lose segments: full tiers whose moves each
// need the room another makes — A: nvme→ram with B: ram→nvme, and the
// rotation bb→ram, ram→nvme, nvme→bb — submitted in every order over real
// stores and the real I/O client. Every move lands, nothing fails, nothing
// is retried, no payload is lost, and on free devices nothing sleeps.
func TestMoverSwapCycleLosesNothing(t *testing.T) {
	defer leakcheck.Slab(t)()
	const size = 4096
	cycles := [][]Move{
		{{From: 1, To: 0}, {From: 0, To: 1}},
		{{From: 2, To: 0}, {From: 0, To: 1}, {From: 1, To: 2}},
	}
	fs := pfs.New(nil)
	fs.Create("f", 16*size)
	best := time.Hour
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cycle := slices.Clone(cycles[seed%2])
		hier := tiers.NewHierarchy(tiers.NewStore("ram", size, nil), tiers.NewStore("nvme", size, nil), tiers.NewStore("bb", size, nil))
		ioc := ioclient.New(fs, seg.NewSegmenter(size))
		for i := range cycle {
			cycle[i].ID, cycle[i].Size = sid(int64(cycle[i].From)), size
			if err := ioc.Fetch(cycle[i].ID, size, hier.Tier(cycle[i].From)); err != nil {
				t.Fatal(err)
			}
		}
		if len(cycle) == 2 { // bb takes no part: full too, and left alone
			ioc.Fetch(sid(2), size, hier.Tier(2))
		}
		inUse := tiers.ReadSlabStats().InUseBytes
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		out := newOutcome()
		m := New(Config{Concurrency: []int{1 + rng.Intn(2), 1 + rng.Intn(2), 1 + rng.Intn(2)}, PFSStreams: 1, QueueDepth: 1 + rng.Intn(2)}, hier, ioc, out.cb)
		m.Start()
		start := time.Now()
		m.Submit(cycle) // one pass's plan is one batch, in whatever order
		drained(t, m, fmt.Sprint("seed ", seed))
		best = min(best, time.Since(start))
		m.Stop()
		for _, mv := range cycle {
			if got := hier.Locate(mv.ID); got != mv.To {
				t.Fatalf("seed %d: %v is in tier %d, want %d", seed, mv.ID, got, mv.To)
			}
			if err, ok := out.errOf(mv.ID); !ok || err != nil {
				t.Fatalf("seed %d: %v outcome %v (reported %v)", seed, mv.ID, err, ok)
			}
		}
		st := m.Stats()
		if st.Failed != 0 || st.Retried != 0 || int(st.Executed) != len(cycle) || st.Outstanding != 0 {
			t.Fatalf("seed %d: stats = %+v, want %d executed and nothing else", seed, st, len(cycle))
		}
		if got := tiers.ReadSlabStats().InUseBytes; got != inUse {
			t.Fatalf("seed %d: slab in use %d after the cycle, %d before: a payload was lost or leaked", seed, got, inUse)
		}
		for _, s := range hier.Stores() {
			s.Clear()
		}
	}
	// The retry loop's first back-off alone was 100 µs. The fastest of 200
	// says what the mover needs when the host does not interfere.
	t.Logf("fastest cycle: %v", best)
	if best > 100*time.Microsecond {
		t.Fatalf("the fastest of 200 cycles took %v: something on the path waits on a clock", best)
	}
}

// A batch announces its departures before its first move is queued: a fill
// whose room a later move of the same batch makes waits for it even while
// Submit, blocked on a full queue, has not got that far.
func TestMoverSubmitAnnouncesItsDepartures(t *testing.T) {
	hier := twoTiers(100)
	hier.Tier(0).Put(sid(9), make([]byte, 100)) // ram is full
	ex := newFakeExec()
	gate := make(chan struct{})
	ex.beforeWrite = func(id seg.ID) {
		if id == sid(0) {
			<-gate
		}
	}
	out := newOutcome()
	m := New(Config{Concurrency: []int{1}, PFSStreams: 1, QueueDepth: 1}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()
	submitted := make(chan struct{})
	go func() {
		m.Submit(append(fetches(0, 3), Move{ID: sid(9), Size: 100, From: 0, To: -1}))
		close(submitted)
	}()
	// The worker holds fetch 0, fetch 1 fills the queue, Submit is blocked
	// on fetch 2 and has not seen the eviction yet.
	waitStats(t, m, "Submit blocked", func(_ int, st Stats) bool { return st.Submitted == 2 })
	close(gate)
	<-submitted
	drained(t, m, "the batch")
	if err, ok := out.errOf(sid(0)); !ok || err != nil || !hier.Tier(0).Has(sid(0)) {
		t.Fatalf("fetch 0: outcome %v (reported %v); it reached the full tier first and must have waited for the batch's eviction", err, ok)
	}
	if st := m.Stats(); st.Executed != 2 || st.Failed != 2 {
		t.Fatalf("stats = %+v, want the eviction and one fetch executed, the two that no longer fit given up", st)
	}
}

// An eviction submitted after every worker of its tier has run into the
// full tier still runs — a parked fill holds no worker, and nothing that
// frees room queues behind something that waits for it — and the fills it
// makes room for land.
func TestMoverEvictionRunsWhileFillsWait(t *testing.T) {
	hier := twoTiers(300, 1000)
	for i := int64(0); i < 3; i++ {
		hier.Tier(0).Put(sid(10+i), make([]byte, 100)) // ram is full
	}
	ex := newFakeExec()
	gate := make(chan struct{})
	ex.fail = func(step string, id seg.ID) error {
		if step == "take" && id == sid(10) {
			<-gate // a demotion that has yet to leave ram: its fills wait
		}
		return nil
	}
	out := newOutcome()
	m := New(Config{Concurrency: []int{2, 1}, PFSStreams: 2}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()
	m.Submit([]Move{{ID: sid(10), Size: 100, From: 0, To: 1}})
	m.Submit(fetches(0, 4)) // twice ram's workers
	waitStats(t, m, "every fill parked", func(waiting int, st Stats) bool { return waiting == 4 })
	m.Submit([]Move{
		{ID: sid(11), Size: 100, From: 0, To: -1},
		{ID: sid(12), Size: 100, From: 0, To: -1},
	})
	waitStats(t, m, "two fills landed", func(waiting int, st Stats) bool { return st.Executed == 4 && waiting == 2 })
	close(gate)
	drained(t, m, "after the demotion left")
	// Three fills fit; the fourth gave up when the last departure was gone.
	st := m.Stats()
	if st.Executed != 6 || st.Failed != 1 || hier.Tier(0).Used() != 300 {
		t.Fatalf("stats = %+v, ram holds %d; want 3 fills, 2 evictions and the demotion executed, one fill given up", st, hier.Tier(0).Used())
	}
}

// A tier filled behind the mover's back — by hand here, by another node on
// a shared tier — has no departure of this mover's to wait for: the fill
// gives up instead of hanging Drain, at once or as soon as the one
// departure there was turns out not to have made room enough.
func TestMoverGivesUpOnTierFilledBehindItsBack(t *testing.T) {
	defer leakcheck.Slab(t)()
	hier := twoTiers(200, 1000)
	hier.Tier(0).Put(seg.ID{File: "theirs", Index: 0}, make([]byte, 150))
	hier.Tier(0).Put(sid(9), make([]byte, 50))
	hier.Tier(1).Put(sid(1), make([]byte, 100))
	ex := newFakeExec()
	out := newOutcome()
	m := New(Config{}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()

	m.Submit(fetches(0, 1))
	drained(t, m, "no departure outstanding")
	if err, ok := out.errOf(sid(0)); !ok || !errors.Is(err, tiers.ErrNoSpace) {
		t.Fatalf("fetch outcome = %v (reported %v), want ErrNoSpace", err, ok)
	}
	// With a departure outstanding both fills wait; it frees 50 of the 100
	// each needs, and is the last: both give up. The transfer's payload
	// goes back to the tier it left.
	m.Submit([]Move{{ID: sid(9), Size: 50, From: 0, To: 1}, {ID: sid(0), Size: 100, From: -1, To: 0}, {ID: sid(1), Size: 100, From: 1, To: 0}})
	drained(t, m, "the one departure made too little room")
	if err, _ := out.errOf(sid(1)); !errors.Is(err, tiers.ErrNoSpace) || !hier.Tier(1).Has(sid(1)) {
		t.Fatalf("transfer outcome = %v, in nvme %v; want ErrNoSpace and the payload back at its source", err, hier.Tier(1).Has(sid(1)))
	}
	if st := m.Stats(); st.Failed != 3 || st.Executed != 1 || st.Retried != 0 || hier.Locate(sid(0)) >= 0 {
		t.Fatalf("stats = %+v, want three fills failed and the demotion executed", st)
	}
	for _, s := range hier.Stores() {
		s.Clear()
	}
}

// Stop with fills parked: they give up — a transfer's payload back to the
// tier it left, a fetched one dropped — every one is reported, and nothing
// stays in hand.
func TestMoverStopWithWaiters(t *testing.T) {
	defer leakcheck.Slab(t)()
	m, hier, out, open := parkOne(t)
	m.Submit(fetches(1, 1)) // parks behind the promotion
	waitStats(t, m, "both parked", func(waiting int, st Stats) bool { return waiting == 2 })
	stopped := make(chan struct{})
	go func() {
		m.Stop()
		close(stopped)
	}()
	// The held demotion is still running: Stop returns once it is let go,
	// but the waiters have given up by then without it.
	waitStats(t, m, "the waiters gone", func(waiting int, st Stats) bool { return st.Failed == 2 })
	if !hier.Tier(1).Has(sid(0)) || hier.Locate(sid(1)) >= 0 {
		t.Fatal("the transfer's payload must be back in nvme, the fetched one nowhere")
	}
	for _, id := range []seg.ID{sid(0), sid(1)} {
		if err, ok := out.errOf(id); !ok || !errors.Is(err, tiers.ErrNoSpace) {
			t.Fatalf("%v: outcome %v (reported %v), want ErrNoSpace", id, err, ok)
		}
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned with a worker still executing")
	default:
	}
	open()
	<-stopped
	for _, s := range hier.Stores() {
		s.Clear()
	}
}

// The mover as a state machine under a seeded random driver: fresh moves,
// re-placements of segments queued, running or parked, cancelled files,
// full destinations, executor failures and Stop with fills parked, in
// arbitrary interleavings over small real stores. At quiescence Drain has
// returned (its deadline is never needed), every hop the executor started
// was reported exactly once, each segment is where its last report says,
// and nothing is left in hand. The accounting invariant outstanding ==
// queued + running + waiting is asserted throughout under
// -tags hfetch_invariants.
func TestMoverStateMachine(t *testing.T) {
	defer leakcheck.Slab(t)()
	seeds := int64(500)
	if testing.Short() {
		seeds = 100
	}
	var sum Stats
	var refused int64
	for seed := int64(0); seed < seeds; seed++ {
		st, r := runStateMachine(t, seed)
		sum.Submitted += st.Submitted
		sum.Executed += st.Executed
		sum.Failed += st.Failed
		sum.Superseded += st.Superseded
		sum.Cancelled += st.Cancelled
		sum.Coalesced += st.Coalesced
		refused += r
	}
	t.Logf("%d seeds: %+v, %d landings refused for want of room", seeds, sum, refused)
	if sum.Executed == 0 || sum.Failed == 0 || sum.Superseded == 0 || sum.Cancelled == 0 || sum.Coalesced == 0 || refused == 0 {
		t.Fatal("the driver no longer reaches every kind of transition")
	}
}

func runStateMachine(t *testing.T, seed int64) (Stats, int64) {
	rng := rand.New(rand.NewSource(seed))
	files := []string{"a", "b"}
	const perFile = 5
	hier := twoTiers(300, 400, 500)
	ex := newFakeExec()
	var frng = rand.New(rand.NewSource(seed ^ 0x5eed))
	var fmu sync.Mutex
	boom := errors.New("injected failure")
	ex.fail = func(step string, id seg.ID) error {
		fmu.Lock()
		defer fmu.Unlock()
		switch n := frng.Intn(40); {
		case n == 0:
			return boom
		case n < 8:
			runtime.Gosched() // stretch the step: more states to hit it in
		}
		return nil
	}
	// model is the planner's view — the tier it last asked for, corrected
	// from the stores when a hop fails, as the engine's reconcile does —
	// and last where each segment's last report says it is; cancelled marks
	// the files whose stale reports (see below) are excused. The queues are
	// deeper than there are segments, so Submit never blocks and the
	// planner may plan and submit under the lock its reconciler takes.
	var mu sync.Mutex
	model := map[seg.ID]int{}
	last := map[seg.ID]int{}
	reports := int64(0)
	cancelled := map[string]bool{}
	done := func(mv Move, err error) {
		mu.Lock()
		defer mu.Unlock()
		reports++
		switch {
		case err == nil:
			last[mv.ID] = mv.To
		case err == ErrCancelled:
			last[mv.ID] = -1
		default:
			last[mv.ID] = hier.Locate(mv.ID)
			model[mv.ID] = last[mv.ID]
		}
	}
	m := New(Config{Concurrency: []int{2, 1, 1}, PFSStreams: 2, QueueDepth: 16, Coalesce: seed%2 == 0}, hier, ex, done)
	m.Start()
	for step, steps := 0, 20+rng.Intn(40); step < steps; step++ {
		switch n := rng.Intn(20); {
		case n == 0:
			file := files[rng.Intn(len(files))]
			m.CancelFile(file)
			hier.DeleteFile(file) // as the engine's dropFile does, in this order
			mu.Lock()
			cancelled[file] = true
			for id := range model {
				if id.File == file {
					delete(model, id)
					last[id] = -1
				}
			}
			mu.Unlock()
		case n == 1:
			runtime.Gosched()
		default:
			mu.Lock()
			batch := make([]Move, 1+rng.Intn(4))
			for i := range batch {
				id := seg.ID{File: files[rng.Intn(len(files))], Index: int64(rng.Intn(perFile))}
				from, ok := model[id]
				if !ok {
					from = -1
				}
				to := rng.Intn(hier.Len()+1) - 1
				batch[i] = Move{ID: id, Size: int64(100 + 50*rng.Intn(2)), From: from, To: to}
				model[id] = to
			}
			m.Submit(batch)
			mu.Unlock()
		}
	}
	if seed%4 == 3 {
		m.Stop() // with whatever is queued, running or parked
	} else {
		drained(t, m, fmt.Sprint("seed ", seed))
		m.Stop()
	}

	m.mu.Lock()
	left := m.outstanding + m.running + len(m.inflight)
	for ti := range m.queues {
		left += len(m.queues[ti]) + len(m.waiting[ti]) + m.leaving[ti]
	}
	m.mu.Unlock()
	if left != 0 {
		t.Fatalf("seed %d: the mover is not empty at quiescence: %+v", seed, m.Stats())
	}
	if hops := ex.hops.Load(); hops != reports {
		t.Fatalf("seed %d: the executor started %d hops, %d were reported", seed, hops, reports)
	}
	if id, ok := hier.ExclusiveOK(); !ok {
		t.Fatalf("seed %d: %v is resident in two tiers", seed, id)
	}
	for id, want := range last {
		got := hier.Locate(id)
		// A hop that landed as its file was being cancelled may report its
		// tier after the sweep emptied it (the engine's stale mapping, which
		// a read falls through); the reverse — bytes nobody reported — never.
		if got != want && !(got < 0 && cancelled[id.File]) {
			t.Fatalf("seed %d: %v is in tier %d, its last report says %d", seed, id, got, want)
		}
	}
	// What the stores hold goes back now; what the mover still had in hand
	// would be left in the slab's ledger (leakcheck.Slab, per test).
	for _, s := range hier.Stores() {
		s.Clear()
	}
	return m.Stats(), ex.refused.Load()
}

// BenchmarkMoverSubmitDrain is benchmark/'s mover.submit_drain drive: 1 024
// fetches over three tiers against an executor that moves nothing, Submit
// to Drain. allocs/move is the mover's own cost per move.
func BenchmarkMoverSubmitDrain(b *testing.B) {
	hier := twoTiers(64<<20, 128<<20, 256<<20)
	m := New(Config{}, hier, noopExec{}, func(Move, error) {})
	m.Start()
	defer m.Stop()
	moves := make([]Move, 1024)
	for i := range moves {
		moves[i] = Move{ID: seg.ID{File: "drive/move", Index: int64(i)}, Size: 64 << 10, From: -1, To: i % 3}
	}
	round := func() {
		m.Submit(moves)
		m.Drain()
	}
	round() // the record pool and the queues reach their size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(moves)), "ns/move")
	b.ReportMetric(testing.AllocsPerRun(5, round)/float64(len(moves)), "allocs/move")
}

// noopExec is benchmark/'s noopMover: an Executor and nothing more, whose
// moves succeed and move nothing.
type noopExec struct{}

func (noopExec) Fetch(seg.ID, int64, *tiers.Store) error           { return nil }
func (noopExec) Transfer(seg.ID, *tiers.Store, *tiers.Store) error { return nil }
func (noopExec) Evict(seg.ID, *tiers.Store) error                  { return nil }

// Submit → land against an executor that moves nothing allocates nothing
// per move once the record pool is warm.
func TestMoverSteadyStateAllocatesNothingPerMove(t *testing.T) {
	if invariant.Enabled {
		t.Skip("assertions box their arguments")
	}
	hier := twoTiers(1<<20, 1<<20, 1<<20)
	m := New(Config{}, hier, noopExec{}, func(Move, error) {})
	m.Start()
	defer m.Stop()
	moves := make([]Move, 256)
	for i := range moves {
		moves[i] = Move{ID: sid(int64(i)), Size: 4096, From: i%4 - 1, To: (i + 1) % 3}
		if moves[i].From == moves[i].To {
			moves[i].To = -1
		}
	}
	round := func() {
		m.Submit(moves)
		m.Drain()
	}
	round()
	if got := testing.AllocsPerRun(20, round) / float64(len(moves)); got > 0.1 {
		t.Fatalf("%.3f allocations per move, budget 0.1", got)
	}
}
