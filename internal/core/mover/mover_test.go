package mover

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/harness/leakcheck"
	"hfetch/internal/tiers"
)

// fakeExec is a controllable Executor, BatchFetcher and Carrier over real
// tier stores: fetches materialize synthetic slab payloads, transfers and
// evictions move/drop them, a gate can hold any operation open, and fail
// can fail any of them. plain() hides everything but the Executor.
type fakeExec struct {
	mu         sync.Mutex
	fetches    []seg.ID
	batchCalls [][]int64 // sizes slice per FetchMany call
	firsts     []int64   // first index per FetchMany call
	// beforeWrite, when set, runs before each tier write of a FetchMany,
	// after the origin read was reported.
	beforeWrite func(id seg.ID)
	// fail, when set, is asked before each physical step ("fetch", "take",
	// "land", "evict"); a non-nil answer fails the step with it.
	fail      func(step string, id seg.ID) error
	transfers int
	evicts    int
	hops      atomic.Int64 // hops started: an evict, a take, a fetched segment
	refused   atomic.Int64 // landings a full destination refused

	gate     chan struct{} // nil = never block
	gateOnce sync.Once
	entered  chan struct{}
}

func newFakeExec() *fakeExec { return &fakeExec{entered: make(chan struct{}, 64)} }

func (f *fakeExec) withGate() *fakeExec {
	f.gate = make(chan struct{})
	return f
}

func (f *fakeExec) release() { f.gateOnce.Do(func() { close(f.gate) }) }

func (f *fakeExec) wait() {
	if f.gate != nil {
		<-f.gate
	}
}

func (f *fakeExec) enter() {
	select {
	case f.entered <- struct{}{}:
	default:
	}
}

func (f *fakeExec) failed(step string, id seg.ID) error {
	if f.fail == nil {
		return nil
	}
	return f.fail(step, id)
}

func (f *fakeExec) Fetch(id seg.ID, size int64, dst *tiers.Store) (err error) {
	f.FetchMany(id.File, id.Index, []int64{size}, dst, func() {}, func(_ int, held *tiers.Buf, e error) {
		if held != nil {
			held.Release()
		}
		err = e
	})
	return err
}

func (f *fakeExec) Transfer(id seg.ID, src, dst *tiers.Store) error {
	b, err := f.Take(id, src)
	if err != nil {
		return err
	}
	if err = f.Land(id, b, src, dst, nil); err != nil && src.PutBuf(id, b) != nil {
		b.Release()
	}
	return err
}

func (f *fakeExec) Take(id seg.ID, src *tiers.Store) (*tiers.Buf, error) {
	f.enter()
	f.wait()
	f.hops.Add(1)
	if err := f.failed("take", id); err != nil {
		return nil, err
	}
	return src.TakeBuf(id)
}

func (f *fakeExec) Land(id seg.ID, b *tiers.Buf, from, dst *tiers.Store, w tiers.RoomWaiter) error {
	if err := f.failed("land", id); err != nil {
		return err
	}
	if err := dst.PutBufWait(id, b, w); err != nil {
		f.refused.Add(1)
		return err
	}
	if from != nil {
		f.mu.Lock()
		f.transfers++
		f.mu.Unlock()
	}
	return nil
}

func (f *fakeExec) Evict(id seg.ID, src *tiers.Store) error {
	f.enter()
	f.wait()
	f.hops.Add(1)
	if err := f.failed("evict", id); err != nil {
		return err
	}
	if !src.Delete(id) {
		return tiers.ErrNotFound
	}
	f.mu.Lock()
	f.evicts++
	f.mu.Unlock()
	return nil
}

func (f *fakeExec) FetchMany(file string, first int64, sizes []int64, dst *tiers.Store, fetched func(), landed func(int, *tiers.Buf, error)) int {
	f.enter()
	f.wait()
	f.mu.Lock()
	f.batchCalls = append(f.batchCalls, append([]int64(nil), sizes...))
	f.firsts = append(f.firsts, first)
	for i := range sizes {
		f.fetches = append(f.fetches, seg.ID{File: file, Index: first + int64(i)})
	}
	f.mu.Unlock()
	fetched()
	co := 0
	for i, sz := range sizes {
		id := seg.ID{File: file, Index: first + int64(i)}
		f.hops.Add(1)
		if f.beforeWrite != nil {
			f.beforeWrite(id)
		}
		if err := f.failed("fetch", id); err != nil {
			landed(i, nil, err)
			continue
		}
		b := tiers.NewBuf(tiers.SlabGet(sz))
		if err := dst.PutBuf(id, b); err != nil {
			landed(i, b, err)
			continue
		}
		if len(sizes) > 1 {
			co++
		}
		landed(i, nil, nil)
	}
	return co
}

// plainExec is fakeExec behind the Executor interface alone: what a mover
// does with an executor that can neither batch nor carry.
type plainExec struct{ f *fakeExec }

func (f *fakeExec) plain() Executor { return plainExec{f} }

func (p plainExec) Fetch(id seg.ID, size int64, dst *tiers.Store) error {
	return p.f.Fetch(id, size, dst)
}
func (p plainExec) Transfer(id seg.ID, src, dst *tiers.Store) error {
	return p.f.Transfer(id, src, dst)
}
func (p plainExec) Evict(id seg.ID, src *tiers.Store) error { return p.f.Evict(id, src) }

// outcome captures done-callback results.
type outcome struct {
	mu   sync.Mutex
	done map[seg.ID]error
	n    int
}

func newOutcome() *outcome { return &outcome{done: make(map[seg.ID]error)} }

func (o *outcome) cb(mv Move, err error) {
	o.mu.Lock()
	o.done[mv.ID] = err
	o.n++
	o.mu.Unlock()
}

func (o *outcome) errOf(id seg.ID) (error, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	e, ok := o.done[id]
	return e, ok
}

func sid(i int64) seg.ID { return seg.ID{File: "f", Index: i} }

func twoTiers(caps ...int64) *tiers.Hierarchy {
	names := []string{"ram", "nvme", "bb"}
	var stores []*tiers.Store
	for i, c := range caps {
		stores = append(stores, tiers.NewStore(names[i], c, nil))
	}
	return tiers.NewHierarchy(stores...)
}

// waitStats polls until ok(stats) or fails the test.
func waitStats(t *testing.T, m *Mover, what string, ok func(waiting int, st Stats) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		m.mu.Lock()
		waiting := 0
		for _, w := range m.waiting {
			waiting += len(w)
		}
		m.mu.Unlock()
		st := m.Stats()
		if ok(waiting, st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s: %d waiting, %+v", what, waiting, st)
		}
	}
}

func TestMoverExecutesMixedPlan(t *testing.T) {
	for name, pick := range map[string]func(*fakeExec) Executor{
		"carrier": func(f *fakeExec) Executor { return f },
		"plain":   (*fakeExec).plain,
	} {
		hier := twoTiers(1000, 1000)
		ex := newFakeExec()
		out := newOutcome()
		// Pre-seed a segment to transfer and one to evict.
		hier.Tier(1).Put(sid(1), make([]byte, 100))
		hier.Tier(0).Put(sid(2), make([]byte, 100))
		m := New(Config{}, hier, pick(ex), out.cb)
		m.Start()

		m.Submit([]Move{
			{ID: sid(2), Size: 100, From: 0, To: -1}, // evict
			{ID: sid(1), Size: 100, From: 1, To: 0},  // promote
			{ID: sid(0), Size: 100, From: -1, To: 0}, // fetch
		})
		m.Drain()
		m.Stop()

		if !hier.Tier(0).Has(sid(0)) || !hier.Tier(0).Has(sid(1)) {
			t.Fatalf("%s: fetch and promotion must land in ram", name)
		}
		if hier.Tier(0).Has(sid(2)) || hier.Tier(1).Has(sid(1)) {
			t.Fatalf("%s: eviction must drop the segment, promotion leave its source", name)
		}
		for i := int64(0); i < 3; i++ {
			if err, ok := out.errOf(sid(i)); !ok || err != nil {
				t.Fatalf("%s: segment %d outcome = %v (reported %v), want nil", name, i, err, ok)
			}
		}
		st := m.Stats()
		if st.Executed != 3 || st.Failed != 0 || st.Outstanding != 0 {
			t.Fatalf("%s: stats = %+v, want 3 executed, none failed/outstanding", name, st)
		}
	}
}

func TestMoverSupersedeQueuedRetargets(t *testing.T) {
	hier := twoTiers(1000, 1000)
	ex := newFakeExec().withGate()
	out := newOutcome()
	m := New(Config{Concurrency: []int{1, 1}, PFSStreams: 1}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()
	defer ex.release()

	m.Submit([]Move{{ID: sid(9), Size: 100, From: -1, To: 0}}) // occupies the worker
	<-ex.entered
	m.Submit([]Move{{ID: sid(0), Size: 100, From: -1, To: 0}}) // queued
	// Newer pass wants the queued segment in nvme instead: the record's
	// wanted tier is rewritten, the fetch not executed twice.
	m.Submit([]Move{{ID: sid(0), Size: 100, From: 0, To: 1}})
	ex.release()
	m.Drain()

	if !hier.Tier(1).Has(sid(0)) {
		t.Fatal("retargeted fetch must land in nvme")
	}
	if hier.Tier(0).Has(sid(0)) {
		t.Fatal("retargeted fetch must not leave a ram copy")
	}
	ex.mu.Lock()
	n := len(ex.fetches)
	ex.mu.Unlock()
	if n != 2 {
		t.Fatalf("executor fetches = %d, want 2 (one per segment)", n)
	}
	if st := m.Stats(); st.Superseded != 1 {
		t.Fatalf("superseded = %d, want 1", st.Superseded)
	}
	// Wanted back at the origin before anything ran: dropped unmoved.
	ex2 := newFakeExec().withGate()
	m2 := New(Config{Concurrency: []int{1, 1}, PFSStreams: 1}, hier, ex2, out.cb)
	m2.Start()
	defer m2.Stop()
	defer ex2.release()
	m2.Submit([]Move{{ID: sid(8), Size: 100, From: -1, To: 0}})
	<-ex2.entered
	m2.Submit([]Move{{ID: sid(5), Size: 100, From: -1, To: 0}, {ID: sid(5), Size: 100, From: 0, To: -1}})
	ex2.release()
	m2.Drain()
	if _, ok := out.errOf(sid(5)); ok || hier.Locate(sid(5)) >= 0 {
		t.Fatal("a fetch wanted nowhere before it ran must neither execute nor report")
	}
	if st := m2.Stats(); st.Cancelled != 1 || st.Executed != 1 {
		t.Fatalf("stats = %+v, want the blocker executed and one move cancelled", st)
	}
}

// A segment re-placed while a worker has it goes again from where its hop
// landed: the second hop chains behind the first.
func TestMoverSupersedeRunningChains(t *testing.T) {
	hier := twoTiers(1000, 1000)
	ex := newFakeExec().withGate()
	out := newOutcome()
	m := New(Config{Concurrency: []int{1, 1}, PFSStreams: 1}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()
	defer ex.release()

	m.Submit([]Move{{ID: sid(0), Size: 100, From: -1, To: 0}})
	<-ex.entered // the fetch is executing
	// A newer pass demotes the segment; its planner From is the running
	// hop's To, and the transfer runs after the fetch lands.
	m.Submit([]Move{{ID: sid(0), Size: 100, From: 0, To: 1}})
	// A third changes its mind again before the first hop is over: only
	// the last wanted tier counts.
	m.Submit([]Move{{ID: sid(0), Size: 100, From: 1, To: 0}})
	m.Submit([]Move{{ID: sid(0), Size: 100, From: 0, To: 1}})
	ex.release()
	m.Drain()

	if !hier.Tier(1).Has(sid(0)) {
		t.Fatal("the second hop must land in nvme")
	}
	if hier.Tier(0).Has(sid(0)) {
		t.Fatal("no ram copy may remain after the second hop")
	}
	if st := m.Stats(); st.Superseded != 3 || st.Executed != 2 || out.n != 2 {
		t.Fatalf("stats = %+v, %d reports; want 3 superseded, 2 hops executed and reported", st, out.n)
	}
}

func TestMoverCancelFile(t *testing.T) {
	hier := twoTiers(1000, 1000)
	ex := newFakeExec().withGate()
	out := newOutcome()
	m := New(Config{Concurrency: []int{1, 1}, PFSStreams: 1}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()
	defer ex.release()

	m.Submit([]Move{{ID: sid(0), Size: 100, From: -1, To: 0}})
	<-ex.entered                                               // running
	m.Submit([]Move{{ID: sid(1), Size: 100, From: -1, To: 0}}) // queued
	m.CancelFile("f")
	ex.release()
	m.Drain()

	if hier.Tier(0).Has(sid(0)) || hier.Tier(0).Has(sid(1)) {
		t.Fatal("cancelled moves must leave nothing resident")
	}
	// The running fetch reports ErrCancelled; the queued one never
	// executed and reports nothing.
	if err, ok := out.errOf(sid(0)); !ok || err != ErrCancelled {
		t.Fatalf("running cancel outcome = %v (reported %v), want ErrCancelled", err, ok)
	}
	if _, ok := out.errOf(sid(1)); ok {
		t.Fatal("a queued cancelled move must not reach the done callback")
	}
	ex.mu.Lock()
	n := len(ex.fetches)
	ex.mu.Unlock()
	if n != 1 {
		t.Fatalf("executor fetches = %d, want 1 (queued fetch cancelled)", n)
	}
	if st := m.Stats(); st.Cancelled < 2 {
		t.Fatalf("cancelled = %d, want >= 2", st.Cancelled)
	}
}

func TestMoverCoalescesAdjacentFetches(t *testing.T) {
	hier := twoTiers(10_000)
	ex := newFakeExec().withGate()
	out := newOutcome()
	m := New(Config{Concurrency: []int{1}, PFSStreams: 1, Coalesce: true}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()
	defer ex.release()

	// A gated blocker occupies the single worker while four adjacent
	// fetches of the same file pile up behind it.
	m.Submit([]Move{{ID: seg.ID{File: "other", Index: 0}, Size: 100, From: -1, To: 0}})
	<-ex.entered
	m.Submit([]Move{
		{ID: sid(4), Size: 100, From: -1, To: 0},
		{ID: sid(5), Size: 100, From: -1, To: 0},
		{ID: sid(6), Size: 100, From: -1, To: 0},
		{ID: sid(7), Size: 100, From: -1, To: 0},
	})
	ex.release()
	m.Drain()

	for i := int64(4); i <= 7; i++ {
		if !hier.Tier(0).Has(sid(i)) {
			t.Fatalf("segment %d missing after coalesced fetch", i)
		}
	}
	// The blocker is a FetchMany of one; the four behind it, with the one
	// PFS stream idle again, are one more.
	ex.mu.Lock()
	calls := len(ex.batchCalls)
	width := len(ex.batchCalls[calls-1])
	ex.mu.Unlock()
	if calls != 2 || width != 4 {
		t.Fatalf("batch calls = %d (last %d wide), want the blocker and one 4-wide FetchMany", calls, width)
	}
	if st := m.Stats(); st.Coalesced != 4 {
		t.Fatalf("coalesced = %d, want 4", st.Coalesced)
	}
}

// evictGated delays evictions only; everything else passes through.
type evictGated struct {
	*fakeExec
	evictGate chan struct{}
}

func (e *evictGated) Evict(id seg.ID, src *tiers.Store) error {
	<-e.evictGate
	return e.fakeExec.Evict(id, src)
}

// A fetch that reaches its tier before the eviction that makes room for it
// waits there with its payload in hand — read once, never re-read — and
// lands when the eviction does. Nothing is retried and nothing sleeps.
func TestMoverWaitsForRoomUntilEvictionLands(t *testing.T) {
	// Capacity for exactly one segment; the eviction that frees space is
	// gated so the incoming fetch finds the tier full.
	hier := twoTiers(100)
	hier.Tier(0).Put(sid(0), make([]byte, 100))
	ex := &evictGated{fakeExec: newFakeExec(), evictGate: make(chan struct{})}
	out := newOutcome()
	m := New(Config{Concurrency: []int{2}, PFSStreams: 2}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()

	m.Submit([]Move{
		{ID: sid(0), Size: 100, From: 0, To: -1},
		{ID: sid(1), Size: 100, From: -1, To: 0},
	})
	waitStats(t, m, "the fetch parked", func(waiting int, st Stats) bool { return waiting == 1 })
	if st := m.Stats(); st.Outstanding != 2 || st.Failed != 0 {
		t.Fatalf("stats with the fetch parked = %+v, want both moves outstanding", st)
	}
	if w, done := m.WaitFor(sid(1), time.Millisecond); done || w == 0 {
		t.Fatal("a parked fetch is in flight: WaitFor waits its timeout out")
	}
	close(ex.evictGate)
	m.Drain()

	if !hier.Tier(0).Has(sid(1)) || hier.Tier(0).Has(sid(0)) {
		t.Fatal("after eviction lands, the waiting fetch must be resident alone")
	}
	if err, ok := out.errOf(sid(1)); !ok || err != nil {
		t.Fatalf("fetch outcome = %v (reported %v), want success", err, ok)
	}
	ex.mu.Lock()
	reads := len(ex.batchCalls)
	ex.mu.Unlock()
	if st := m.Stats(); st.Retried != 0 || st.Failed != 0 || st.Executed != 2 || reads != 1 {
		t.Fatalf("stats = %+v, %d origin reads; want 2 executed, nothing failed or retried, one read", st, reads)
	}
}

func TestMoverWaitFor(t *testing.T) {
	hier := twoTiers(1000)
	ex := newFakeExec().withGate()
	out := newOutcome()
	m := New(Config{Concurrency: []int{1}, PFSStreams: 1}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()
	defer ex.release()

	if w, done := m.WaitFor(sid(0), time.Second); w != 0 || done {
		t.Fatal("WaitFor must return immediately when nothing is in flight")
	}
	m.Submit([]Move{{ID: sid(0), Size: 100, From: -1, To: 0}})
	<-ex.entered
	if _, done := m.WaitFor(sid(0), time.Millisecond); done {
		t.Fatal("WaitFor must time out while the fetch is gated")
	}
	res := make(chan bool, 1)
	go func() {
		_, done := m.WaitFor(sid(0), 5*time.Second)
		res <- done
	}()
	time.Sleep(time.Millisecond)
	ex.release()
	select {
	case done := <-res:
		if !done {
			t.Fatal("WaitFor must report completion once the fetch lands")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitFor never returned after release")
	}
	if !hier.Tier(0).Has(sid(0)) {
		t.Fatal("fetch must be resident when WaitFor reports done")
	}
}

func TestMoverDrainStopIdempotent(t *testing.T) {
	hier := twoTiers(1000)
	ex := newFakeExec()
	m := New(Config{}, hier, ex, func(Move, error) {})
	m.Start()
	m.Submit([]Move{{ID: sid(0), Size: 100, From: -1, To: 0}})
	m.Drain()
	m.Drain()
	m.Stop()
	// Submit after Stop is a no-op, not a panic.
	m.Submit([]Move{{ID: sid(1), Size: 100, From: -1, To: 0}})
	if st := m.Stats(); st.Submitted != 1 {
		t.Fatalf("submitted = %d, want 1 (post-Stop submit ignored)", st.Submitted)
	}
}

// parkOne parks a promotion of sid(0) out of nvme at a full ram (held
// there by a gated demotion that has yet to leave ram) and returns with it
// waiting; open lets the demotion go.
func parkOne(t *testing.T) (m *Mover, hier *tiers.Hierarchy, out *outcome, open func()) {
	t.Helper()
	hier = twoTiers(100, 1000, 1000)
	hier.Tier(0).Put(sid(7), make([]byte, 100)) // ram is full
	hier.Tier(1).Put(sid(0), make([]byte, 100))
	ex := newFakeExec()
	gate := make(chan struct{})
	ex.fail = func(step string, id seg.ID) error {
		if step == "take" && id == sid(7) {
			<-gate
		}
		return nil
	}
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	out = newOutcome()
	m = New(Config{Concurrency: []int{1, 2, 1}, PFSStreams: 1}, hier, ex, out.cb)
	m.Start()
	t.Cleanup(func() {
		open() // Stop waits for the held worker
		m.Stop()
	})
	m.Submit([]Move{
		{ID: sid(7), Size: 100, From: 0, To: 1}, // held before it leaves ram
		{ID: sid(0), Size: 100, From: 1, To: 0},
	})
	waitStats(t, m, "the promotion parked", func(waiting int, st Stats) bool { return waiting == 1 })
	if hier.Locate(sid(0)) >= 0 {
		t.Fatal("a parked transfer has left its source and landed nowhere")
	}
	return m, hier, out, open
}

// A parked fill that a newer pass re-places is not orphaned: wherever it
// is wanted next — another tier, back at its source, nowhere — it goes
// there with its payload, reports once, and Drain returns.
func TestMoverSupersedeWaitingKeepsNoOrphan(t *testing.T) {
	for _, c := range []struct {
		name string
		to   int
	}{{"another tier", 2}, {"back at its source", 1}, {"nowhere", -1}} {
		m, hier, out, _ := parkOne(t)
		m.Submit([]Move{{ID: sid(0), Size: 100, From: 0, To: c.to}})
		waitStats(t, m, "the re-placed fill done", func(waiting int, st Stats) bool { return st.Outstanding == 1 })
		if got := hier.Locate(sid(0)); got != c.to {
			t.Fatalf("%s: segment in tier %d, want %d", c.name, got, c.to)
		}
		if err, ok := out.errOf(sid(0)); !ok || err != nil || out.n != 1 {
			t.Fatalf("%s: outcome %v (reported %v), %d reports; want one success", c.name, err, ok, out.n)
		}
		m.mu.Lock()
		m.checkLocked()
		waiting := len(m.waiting[0])
		m.mu.Unlock()
		if waiting != 0 {
			t.Fatalf("%s: %d records still parked at ram", c.name, waiting)
		}
	}
}

// A file cancelled while one of its fills is parked: the payload in hand
// is released, the move reported cancelled — it had left its source — and
// nothing of it is resident.
func TestMoverCancelFileDropsParkedPayload(t *testing.T) {
	defer leakcheck.Slab(t)()
	m, hier, out, _ := parkOne(t)
	m.CancelFile("f")
	if err, ok := out.errOf(sid(0)); !ok || err != ErrCancelled {
		t.Fatalf("parked cancel outcome = %v (reported %v), want ErrCancelled", err, ok)
	}
	if hier.Locate(sid(0)) >= 0 {
		t.Fatal("a cancelled parked payload must land nowhere")
	}
	waitStats(t, m, "the held demotion flagged", func(waiting int, st Stats) bool { return waiting == 0 && st.Outstanding == 1 })
	for _, st := range hier.Stores() {
		st.Clear()
	}
}

// fetches returns n adjacent fetches of file "f" into tier 0, from index
// first.
func fetches(first, n int64) []Move {
	mv := make([]Move, n)
	for i := range mv {
		mv[i] = Move{ID: sid(first + int64(i)), Size: 100, From: -1, To: 0}
	}
	return mv
}

// A reader of a group's first segment is released when that segment is
// written, not when the group's last one is.
func TestMoverCompletesEachSegmentAsItLands(t *testing.T) {
	hier := twoTiers(10_000)
	ex := newFakeExec()
	lastGate, atLast := make(chan struct{}), make(chan struct{})
	ex.beforeWrite = func(id seg.ID) {
		if id.Index == 15 {
			close(atLast)
			<-lastGate
		}
	}
	out := newOutcome()
	m := New(Config{Concurrency: []int{1}, PFSStreams: 1, Coalesce: true}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()

	m.Submit(fetches(0, 16))
	m.WaitFor(sid(0), 5*time.Second) // returns at once if segment 0 is already done
	if err, ok := out.errOf(sid(0)); !ok || err != nil {
		t.Fatalf("WaitFor on the group's first segment returned with it not done (reported %v, err %v)", ok, err)
	}
	<-atLast // segments 0..14 are written, the executor is held before 15
	for i := int64(0); i < 15; i++ {
		if err, ok := out.errOf(sid(i)); !ok || err != nil {
			t.Fatalf("segment %d: reported %v, err %v; want done while 15 is still held", i, ok, err)
		}
	}
	if _, ok := out.errOf(sid(15)); ok {
		t.Fatal("segment 15 reported before its tier write")
	}
	if st := m.Stats(); st.Executed != 15 || st.Outstanding != 1 {
		t.Fatalf("stats = %+v, want 15 executed and 1 outstanding", st)
	}
	close(lastGate)
	m.Drain()
	if st := m.Stats(); st.Executed != 16 || st.Coalesced != 16 {
		t.Fatalf("stats = %+v, want 16 executed and coalesced", st)
	}
}

// A long run is striped over the PFS streams nobody has spoken for: each
// worker takes the lowest-indexed 1/idle of what is left.
func TestMoverStripesRunOverIdleStreams(t *testing.T) {
	for _, c := range []struct {
		streams int
		firsts  []int64
		widths  []int
	}{
		{streams: 4, firsts: []int64{0, 16, 31, 46}, widths: []int{16, 15, 15, 15}},
		{streams: 1, firsts: []int64{0}, widths: []int{61}},
	} {
		hier := twoTiers(10_000)
		ex := newFakeExec().withGate() // no group's origin read returns before all are taken
		m := New(Config{Concurrency: []int{4}, PFSStreams: c.streams, Coalesce: true}, hier, ex, newOutcome().cb)
		m.Start()
		m.Submit(fetches(0, 61))
		for range c.firsts {
			<-ex.entered
		}
		ex.release()
		m.Drain()
		m.Stop()
		ex.mu.Lock()
		got := make(map[int64]int)
		for i, first := range ex.firsts {
			got[first] = len(ex.batchCalls[i])
		}
		ex.mu.Unlock()
		if len(got) != len(c.firsts) {
			t.Fatalf("%d streams: groups %v, want %d of them", c.streams, got, len(c.firsts))
		}
		for i, first := range c.firsts {
			if got[first] != c.widths[i] {
				t.Fatalf("%d streams: groups (first index: width) %v, want %d from %d", c.streams, got, c.widths[i], first)
			}
		}
		if st := m.Stats(); st.Executed != 61 {
			t.Fatalf("%d streams: executed %d, want 61", c.streams, st.Executed)
		}
	}
}

// The one PFS stream is back as soon as a group's origin read returned:
// another file's fetch gets through while that group's tier writes are
// held.
func TestMoverFreesStreamBeforeTierWrites(t *testing.T) {
	hier := twoTiers(10_000)
	ex := newFakeExec()
	gate, held := make(chan struct{}), make(chan struct{})
	var once sync.Once
	ex.beforeWrite = func(id seg.ID) {
		if id.File == "f" {
			once.Do(func() { close(held) })
			<-gate
		}
	}
	other := seg.ID{File: "g", Index: 0}
	landed := make(chan struct{})
	m := New(Config{Concurrency: []int{2}, PFSStreams: 1, Coalesce: true}, hier, ex, func(mv Move, err error) {
		if mv.ID == other {
			close(landed)
		}
	})
	m.Start()
	defer m.Stop()
	defer close(gate)

	m.Submit(fetches(0, 4))
	<-held
	m.Submit([]Move{{ID: other, Size: 100, From: -1, To: 0}})
	select {
	case <-landed:
	case <-time.After(5 * time.Second):
		t.Fatal("the PFS stream is still held while the first group only writes to its tier")
	}
	m.mu.Lock()
	fetching := m.fetching
	m.mu.Unlock()
	if fetching != 0 || len(m.pfsSem) != 0 {
		t.Fatalf("fetching = %d, streams held = %d with no origin read under way", fetching, len(m.pfsSem))
	}
}

// A segment in the middle of a group that its tier has no room for is
// parked, or given up on, alone: its neighbours are done, the origin is
// read once, and with nothing of this mover's left to leave the tier the
// wait is over at once — a terminal failure, its payload given back.
func TestMoverParksOnlyTheSegmentThatDidNotFit(t *testing.T) {
	defer leakcheck.Slab(t)()
	hier := twoTiers(250)
	ex := newFakeExec()
	out := newOutcome()
	m := New(Config{Concurrency: []int{1}, PFSStreams: 1, Coalesce: true}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()

	mv := fetches(0, 3)
	mv[1].Size = 200 // 100 + 200 > 250: refused, and segment 2 takes its place
	m.Submit(mv)
	m.Drain()

	if err, _ := out.errOf(sid(0)); err != nil || !hier.Tier(0).Has(sid(0)) {
		t.Fatalf("segment 0: %v", err)
	}
	if err, _ := out.errOf(sid(2)); err != nil || !hier.Tier(0).Has(sid(2)) {
		t.Fatalf("segment 2: %v", err)
	}
	if err, ok := out.errOf(sid(1)); !ok || !errors.Is(err, tiers.ErrNoSpace) {
		t.Fatalf("segment 1: reported %v, err %v; want ErrNoSpace: no departure was outstanding", ok, err)
	}
	ex.mu.Lock()
	calls := len(ex.batchCalls)
	ex.mu.Unlock()
	if st := m.Stats(); calls != 1 || st.Retried != 0 || st.Failed != 1 || st.Executed != 2 || out.n != 3 {
		t.Fatalf("stats = %+v, %d FetchMany calls, %d reports; want one call, 1 failed, 2 executed, 3 reports", st, calls, out.n)
	}
	hier.Tier(0).Clear()
}

// Superseding one op of a running group, or cancelling the file once part
// of the group has landed, touches only the ops it names: the others land
// where they were going.
func TestMoverSupersedeAndCancelInsideRunningGroup(t *testing.T) {
	start := func() (*Mover, *tiers.Hierarchy, *outcome, chan struct{}) {
		hier := twoTiers(10_000, 10_000)
		ex := newFakeExec()
		gate, held := make(chan struct{}), make(chan struct{})
		ex.beforeWrite = func(id seg.ID) {
			if id.Index == 2 {
				close(held)
				<-gate
			}
		}
		out := newOutcome()
		m := New(Config{Concurrency: []int{1, 1}, PFSStreams: 1, Coalesce: true}, hier, ex, out.cb)
		m.Start()
		m.Submit(fetches(0, 4))
		<-held // 0 and 1 have landed; 2 and 3 are running
		return m, hier, out, gate
	}

	m, hier, out, gate := start()
	m.Submit([]Move{{ID: sid(3), Size: 100, From: 0, To: 1}}) // 3 alone goes again
	close(gate)
	m.Drain()
	m.Stop()
	for i := int64(0); i < 3; i++ {
		if err, _ := out.errOf(sid(i)); err != nil || !hier.Tier(0).Has(sid(i)) {
			t.Fatalf("supersede: segment %d must land in tier 0 untouched (err %v)", i, err)
		}
	}
	if hier.Tier(0).Has(sid(3)) || !hier.Tier(1).Has(sid(3)) {
		t.Fatal("supersede: segment 3 must follow its newer move to tier 1")
	}

	m, hier, out, gate = start()
	m.CancelFile("f")
	close(gate)
	m.Drain()
	m.Stop()
	for i := int64(0); i < 4; i++ {
		err, _ := out.errOf(sid(i))
		if landed := i < 2; landed && (err != nil || !hier.Tier(0).Has(sid(i))) {
			t.Fatalf("cancel: segment %d had landed and is none of the mover's any more (err %v)", i, err)
		} else if !landed && (err != ErrCancelled || hier.Locate(sid(i)) >= 0) {
			t.Fatalf("cancel: segment %d: err %v, tier %d; want ErrCancelled and its payload dropped", i, err, hier.Locate(sid(i)))
		}
	}
}

// WaitFor tells a queued move from a running fetch: the first is given
// the caller's timeout, the second is waited out — but only for twice what
// fetch groups have lately taken, so an executor that hangs costs a bounded
// stall.
func TestMoverWaitForRunningFetch(t *testing.T) {
	hier := twoTiers(10_000)
	ex := newFakeExec().withGate()
	m := New(Config{Concurrency: []int{1}, PFSStreams: 1, Coalesce: true}, hier, ex, newOutcome().cb)
	m.Start()
	defer m.Stop()
	defer ex.release()
	setLandTime := func(d time.Duration) {
		m.mu.Lock()
		m.landTime = d
		m.mu.Unlock()
	}

	m.Submit(fetches(0, 2)) // running, held by the gate
	<-ex.entered
	m.Submit(fetches(7, 1)) // queued behind it

	setLandTime(time.Hour)
	if _, done := m.WaitFor(sid(7), time.Millisecond); done {
		t.Fatal("a queued fetch is waited for the timeout only")
	}
	if w, done := m.WaitFor(sid(0), 0); done || w > time.Second {
		t.Fatalf("timeout 0 means no wait, waited %v", w)
	}
	setLandTime(time.Millisecond)
	if _, done := m.WaitFor(sid(0), time.Millisecond); done {
		t.Fatal("a fetch whose executor hangs must be given up on")
	}
	setLandTime(time.Hour)
	res := make(chan bool, 1)
	go func() {
		_, done := m.WaitFor(sid(0), time.Nanosecond)
		res <- done
	}()
	time.Sleep(5 * time.Millisecond) // the nanosecond is long over
	ex.release()
	if !<-res {
		t.Fatal("a running fetch within its bound must be waited out")
	}
}

// The mover learns what a fetch group takes from its own groups.
func TestMoverLearnsLandTime(t *testing.T) {
	hier := twoTiers(10_000)
	m := New(Config{Concurrency: []int{1}, PFSStreams: 1, Coalesce: true}, hier, newFakeExec(), newOutcome().cb)
	m.Start()
	m.Submit(fetches(0, 4))
	m.Drain()
	m.Stop() // the worker records the time after its last op is terminal
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.landTime <= 0 {
		t.Fatalf("landTime = %v after a fetch group landed", m.landTime)
	}
}
