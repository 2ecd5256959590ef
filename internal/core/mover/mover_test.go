package mover

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/tiers"
)

// fakeExec is a controllable Executor (optionally a BatchFetcher) over
// real tier stores: fetches materialize synthetic payloads, transfers
// and evictions move/drop them, and a gate can hold any operation open.
type fakeExec struct {
	batch bool

	mu         sync.Mutex
	fetches    []seg.ID
	batchCalls [][]int64 // sizes slice per FetchMany call
	transfers  int
	evicts     int

	gate     chan struct{} // nil = never block
	gateOnce sync.Once
	entered  chan struct{}
}

func newFakeExec(batch bool) *fakeExec {
	return &fakeExec{batch: batch, entered: make(chan struct{}, 64)}
}

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

func (f *fakeExec) Fetch(id seg.ID, size int64, dst *tiers.Store) error {
	f.enter()
	f.wait()
	f.mu.Lock()
	f.fetches = append(f.fetches, id)
	f.mu.Unlock()
	return dst.PutOwned(id, make([]byte, size))
}

func (f *fakeExec) Transfer(id seg.ID, src, dst *tiers.Store) error {
	f.enter()
	f.wait()
	payload, err := src.Take(id)
	if err != nil {
		return err
	}
	if err := dst.PutOwned(id, payload); err != nil {
		if rerr := src.PutOwned(id, payload); rerr != nil {
			return fmt.Errorf("lost: %v / %w", err, rerr)
		}
		return err
	}
	f.mu.Lock()
	f.transfers++
	f.mu.Unlock()
	return nil
}

func (f *fakeExec) Evict(id seg.ID, src *tiers.Store) error {
	f.enter()
	f.wait()
	if !src.Delete(id) {
		return tiers.ErrNotFound
	}
	f.mu.Lock()
	f.evicts++
	f.mu.Unlock()
	return nil
}

func (f *fakeExec) FetchMany(file string, first int64, sizes []int64, dst *tiers.Store) ([]error, int) {
	if !f.batch {
		panic("FetchMany on a non-batch fakeExec")
	}
	f.enter()
	f.wait()
	f.mu.Lock()
	cp := make([]int64, len(sizes))
	copy(cp, sizes)
	f.batchCalls = append(f.batchCalls, cp)
	f.mu.Unlock()
	errs := make([]error, len(sizes))
	co := 0
	for i, sz := range sizes {
		id := seg.ID{File: file, Index: first + int64(i)}
		errs[i] = dst.Put(id, make([]byte, sz))
		if errs[i] == nil && len(sizes) > 1 {
			co++
		}
	}
	return errs, co
}

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

func TestMoverExecutesMixedPlan(t *testing.T) {
	hier := twoTiers(1000, 1000)
	ex := newFakeExec(false)
	out := newOutcome()
	// Pre-seed a segment to transfer and one to evict.
	hier.Tier(1).Put(sid(1), make([]byte, 100))
	hier.Tier(0).Put(sid(2), make([]byte, 100))
	m := New(Config{}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()

	m.Submit([]Move{
		{ID: sid(2), Size: 100, From: 0, To: -1}, // evict
		{ID: sid(1), Size: 100, From: 1, To: 0},  // promote
		{ID: sid(0), Size: 100, From: -1, To: 0}, // fetch
	})
	m.Drain()

	if !hier.Tier(0).Has(sid(0)) || !hier.Tier(0).Has(sid(1)) {
		t.Fatal("fetch and promotion must land in ram")
	}
	if hier.Tier(0).Has(sid(2)) {
		t.Fatal("eviction must drop the segment")
	}
	for i := int64(0); i < 3; i++ {
		if err, ok := out.errOf(sid(i)); !ok || err != nil {
			t.Fatalf("segment %d outcome = %v (reported %v), want nil", i, err, ok)
		}
	}
	st := m.Stats()
	if st.Executed != 3 || st.Failed != 0 || st.Outstanding != 0 {
		t.Fatalf("stats = %+v, want 3 executed, none failed/outstanding", st)
	}
}

func TestMoverSupersedeQueuedRetargets(t *testing.T) {
	hier := twoTiers(1000, 1000)
	ex := newFakeExec(false).withGate()
	out := newOutcome()
	m := New(Config{Concurrency: []int{1, 1}, PFSStreams: 1}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()
	defer ex.release()

	m.Submit([]Move{{ID: sid(9), Size: 100, From: -1, To: 0}}) // occupies the worker
	<-ex.entered
	m.Submit([]Move{{ID: sid(0), Size: 100, From: -1, To: 0}}) // queued
	// Newer pass wants the queued segment in nvme instead: the queued
	// fetch is retargeted, not executed twice.
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
}

func TestMoverSupersedeRunningChains(t *testing.T) {
	hier := twoTiers(1000, 1000)
	ex := newFakeExec(false).withGate()
	out := newOutcome()
	m := New(Config{Concurrency: []int{1, 1}, PFSStreams: 1}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()
	defer ex.release()

	m.Submit([]Move{{ID: sid(0), Size: 100, From: -1, To: 0}})
	<-ex.entered // the fetch is executing
	// A newer pass demotes the segment; its planner From is the running
	// move's To, so the chained transfer runs after the fetch lands.
	m.Submit([]Move{{ID: sid(0), Size: 100, From: 0, To: 1}})
	ex.release()
	m.Drain()

	if !hier.Tier(1).Has(sid(0)) {
		t.Fatal("chained transfer must land in nvme")
	}
	if hier.Tier(0).Has(sid(0)) {
		t.Fatal("no ram copy may remain after the chained transfer")
	}
	if st := m.Stats(); st.Superseded != 1 || st.Executed != 2 {
		t.Fatalf("stats = %+v, want 1 superseded and 2 executed", st)
	}
}

func TestMoverCancelFile(t *testing.T) {
	hier := twoTiers(1000, 1000)
	ex := newFakeExec(false).withGate()
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
	ex := newFakeExec(true).withGate()
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
	ex.mu.Lock()
	calls := len(ex.batchCalls)
	var width int
	if calls > 0 {
		width = len(ex.batchCalls[0])
	}
	ex.mu.Unlock()
	if calls != 1 || width != 4 {
		t.Fatalf("batch calls = %d (width %d), want one 4-wide FetchMany", calls, width)
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

func TestMoverRetriesNoSpaceUntilEvictionLands(t *testing.T) {
	// Capacity for exactly one segment; the eviction that frees space is
	// gated so the incoming fetch transiently overflows and must retry.
	hier := twoTiers(100)
	hier.Tier(0).Put(sid(0), make([]byte, 100))
	ex := &evictGated{fakeExec: newFakeExec(false), evictGate: make(chan struct{})}
	out := newOutcome()
	m := New(Config{Concurrency: []int{2}, PFSStreams: 2}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()

	m.Submit([]Move{
		{ID: sid(0), Size: 100, From: 0, To: -1},
		{ID: sid(1), Size: 100, From: -1, To: 0},
	})
	time.Sleep(2 * time.Millisecond) // let the fetch fail at least once
	close(ex.evictGate)
	m.Drain()

	if !hier.Tier(0).Has(sid(1)) || hier.Tier(0).Has(sid(0)) {
		t.Fatal("after eviction lands, the retried fetch must be resident alone")
	}
	if err, ok := out.errOf(sid(1)); !ok || err != nil {
		t.Fatalf("fetch outcome = %v (reported %v), want success", err, ok)
	}
	st := m.Stats()
	if st.Retried == 0 {
		t.Fatalf("retried = %d, want > 0", st.Retried)
	}
	if st.Failed != 0 {
		t.Fatalf("failed = %d, want 0", st.Failed)
	}
}

func TestMoverWaitFor(t *testing.T) {
	hier := twoTiers(1000)
	ex := newFakeExec(false).withGate()
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
	ex := newFakeExec(false)
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

// gatedFetch holds each segment's first fetch until its gate is closed.
type gatedFetch struct {
	*fakeExec
	gates map[seg.ID]chan struct{}
}

func (g *gatedFetch) Fetch(id seg.ID, size int64, dst *tiers.Store) error {
	g.enter()
	<-g.gates[id]
	return dst.PutOwned(id, make([]byte, size))
}

// A fetch that fails destination-full is requeued still carrying the move
// chained behind it while it ran. A newer pass that then supersedes the
// queued fetch must not orphan the chained move, which is counted in
// outstanding: Drain, Flush and Stop would wait for it forever.
func TestMoverSupersedeRequeuedKeepsNoOrphan(t *testing.T) {
	hier := twoTiers(100, 1000)
	if err := hier.Tier(0).Put(sid(7), make([]byte, 100)); err != nil { // tier 0 is full
		t.Fatal(err)
	}
	a, b := sid(0), sid(1)
	ex := &gatedFetch{fakeExec: newFakeExec(false), gates: map[seg.ID]chan struct{}{
		a: make(chan struct{}), b: make(chan struct{}),
	}}
	m := New(Config{Concurrency: []int{1, 1}, PFSStreams: 1}, hier, ex, newOutcome().cb)
	m.Start()
	defer m.Stop()

	m.Submit([]Move{{ID: a, Size: 100, From: -1, To: 0}})
	<-ex.entered                                         // A's fetch is running
	m.Submit([]Move{{ID: a, Size: 100, From: 0, To: 1}}) // chains behind it
	m.Submit([]Move{{ID: b, Size: 100, From: -1, To: 0}})
	close(ex.gates[a]) // A fails destination-full and requeues behind B
	<-ex.entered       // B's fetch is running, so A is queued
	m.Submit([]Move{{ID: a, Size: 100, From: 1, To: -1}})
	close(ex.gates[b]) // B runs out of retries and fails

	drained := make(chan struct{})
	go func() {
		m.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatalf("Drain still waiting after 2s: %+v", m.Stats())
	}
	if st := m.Stats(); st.Outstanding != 0 {
		t.Fatalf("outstanding = %d after Drain, want 0", st.Outstanding)
	}
}
