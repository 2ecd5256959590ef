package mover

import (
	"errors"
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
	firsts     []int64   // first index per FetchMany call
	// beforeWrite, when set, runs before each tier write of a FetchMany,
	// after the origin read was reported.
	beforeWrite func(id seg.ID)
	transfers   int
	evicts      int

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
	b, err := src.TakeBuf(id)
	if err != nil {
		return err
	}
	if err := dst.PutBuf(id, b); err != nil {
		if rerr := src.PutBuf(id, b); rerr != nil {
			b.Release()
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

func (f *fakeExec) FetchMany(file string, first int64, sizes []int64, dst *tiers.Store, fetched func(), landed func(int, error)) int {
	if !f.batch {
		panic("FetchMany on a non-batch fakeExec")
	}
	f.enter()
	f.wait()
	f.mu.Lock()
	f.batchCalls = append(f.batchCalls, append([]int64(nil), sizes...))
	f.firsts = append(f.firsts, first)
	f.mu.Unlock()
	fetched()
	co := 0
	for i, sz := range sizes {
		id := seg.ID{File: file, Index: first + int64(i)}
		if f.beforeWrite != nil {
			f.beforeWrite(id)
		}
		err := dst.Put(id, make([]byte, sz))
		if err == nil && len(sizes) > 1 {
			co++
		}
		landed(i, err)
	}
	return co
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
	ex := newFakeExec(true)
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
		ex := newFakeExec(true).withGate() // no group's origin read returns before all are taken
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
	ex := newFakeExec(true)
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

// A destination-full segment in the middle of a group is retried alone;
// its neighbours are done.
func TestMoverRetriesOnlyTheSegmentThatDidNotFit(t *testing.T) {
	hier := twoTiers(250)
	ex := newFakeExec(true)
	out := newOutcome()
	m := New(Config{Concurrency: []int{1}, PFSStreams: 1, Coalesce: true}, hier, ex, out.cb)
	m.Start()
	defer m.Stop()

	mv := fetches(0, 3)
	mv[1].Size = 200 // 100 + 200 > 250: refused, and again after segment 2 took its place
	m.Submit(mv)
	m.Drain()

	if err, _ := out.errOf(sid(0)); err != nil || !hier.Tier(0).Has(sid(0)) {
		t.Fatalf("segment 0: %v", err)
	}
	if err, _ := out.errOf(sid(2)); err != nil || !hier.Tier(0).Has(sid(2)) {
		t.Fatalf("segment 2: %v", err)
	}
	if err, ok := out.errOf(sid(1)); !ok || !errors.Is(err, tiers.ErrNoSpace) {
		t.Fatalf("segment 1: reported %v, err %v; want ErrNoSpace once the retries ran out", ok, err)
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if len(ex.batchCalls) != 1+maxRetries || len(ex.batchCalls[0]) != 3 {
		t.Fatalf("%d FetchMany calls, the first %d wide; want the group and %d retries", len(ex.batchCalls), len(ex.batchCalls[0]), maxRetries)
	}
	for i := 1; i < len(ex.batchCalls); i++ {
		if ex.firsts[i] != 1 || len(ex.batchCalls[i]) != 1 {
			t.Fatalf("retry %d fetched %d segments from %d, want segment 1 alone", i, len(ex.batchCalls[i]), ex.firsts[i])
		}
	}
	if st := m.Stats(); st.Retried != maxRetries || st.Failed != 1 || st.Executed != 2 {
		t.Fatalf("stats = %+v, want %d retried, 1 failed, 2 executed", st, maxRetries)
	}
}

// Superseding one op of a running group, or cancelling the file once part
// of the group has landed, touches only the ops it names: the others land
// where they were going.
func TestMoverSupersedeAndCancelInsideRunningGroup(t *testing.T) {
	start := func() (*Mover, *tiers.Hierarchy, *outcome, chan struct{}) {
		hier := twoTiers(10_000, 10_000)
		ex := newFakeExec(true)
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
	m.Submit([]Move{{ID: sid(3), Size: 100, From: 0, To: 1}}) // chained behind 3 alone
	close(gate)
	m.Drain()
	m.Stop()
	for i := int64(0); i < 3; i++ {
		if err, _ := out.errOf(sid(i)); err != nil || !hier.Tier(0).Has(sid(i)) {
			t.Fatalf("supersede: segment %d must land in tier 0 untouched (err %v)", i, err)
		}
	}
	if hier.Tier(0).Has(sid(3)) || !hier.Tier(1).Has(sid(3)) {
		t.Fatal("supersede: segment 3 must follow its chained move to tier 1")
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
	ex := newFakeExec(true).withGate()
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
	m := New(Config{Concurrency: []int{1}, PFSStreams: 1, Coalesce: true}, hier, newFakeExec(true), newOutcome().cb)
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
