package placement

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"hfetch/internal/core/auditor"
	"hfetch/internal/core/ioclient"
	"hfetch/internal/core/seg"
	"hfetch/internal/tiers"
)

// resident reports the engine's view of where id lives (-1 = not
// prefetched), read from its model under its lock.
func resident(e *Engine, id seg.ID) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.model.Locate(id)
}

// tierLoad returns the engine model's byte usage per tier.
func tierLoad(e *Engine) []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.model.used)
}

// gatedMover holds every Fetch on a gate so tests can observe the window
// between run() returning and the move executing, and optionally fails
// the gated fetches.
type gatedMover struct {
	inner   Mover
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once

	mu          sync.Mutex
	failFetches int
	fetched     []seg.ID
}

func newGatedMover(inner Mover) *gatedMover {
	return &gatedMover{inner: inner, gate: make(chan struct{}), entered: make(chan struct{}, 64)}
}

func (g *gatedMover) release() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedMover) Fetch(id seg.ID, size int64, dst *tiers.Store) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	g.mu.Lock()
	g.fetched = append(g.fetched, id)
	fail := g.failFetches > 0
	if fail {
		g.failFetches--
	}
	g.mu.Unlock()
	if fail {
		return errors.New("injected fetch failure")
	}
	return g.inner.Fetch(id, size, dst)
}

func (g *gatedMover) Transfer(id seg.ID, src, dst *tiers.Store) error {
	return g.inner.Transfer(id, src, dst)
}

func (g *gatedMover) Evict(id seg.ID, src *tiers.Store) error {
	return g.inner.Evict(id, src)
}

func (g *gatedMover) fetchedIDs() []seg.ID {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]seg.ID, len(g.fetched))
	copy(out, g.fetched)
	return out
}

func gatedRig(t *testing.T, cfg Config, capacities ...int64) (*rig, *gatedMover) {
	t.Helper()
	var gm *gatedMover
	r := newRigWrapped(t, cfg, func(m Mover) Mover {
		gm = newGatedMover(m)
		return gm
	}, capacities...)
	// The engine's Stop drains the mover; a forgotten gate must not
	// deadlock the cleanup.
	t.Cleanup(gm.release)
	return r, gm
}

// TestAsyncPlacementMatchesSyncOutcome is TestOverflowCascadesToNextTier
// through the mover: the three fetches may share an origin read and must
// land where three single fetches would.
func TestAsyncPlacementMatchesSyncOutcome(t *testing.T) {
	r := newRig(t, Config{}, 200, 1000)
	deliver(r.eng, up(0, 5))
	deliver(r.eng, up(1, 4))
	deliver(r.eng, up(2, 3))
	r.eng.Flush()
	if !r.hier.Tier(0).Has(seg.ID{File: "f", Index: 0}) ||
		!r.hier.Tier(0).Has(seg.ID{File: "f", Index: 1}) {
		t.Fatal("two hottest segments must be in ram")
	}
	if !r.hier.Tier(1).Has(seg.ID{File: "f", Index: 2}) {
		t.Fatal("coldest segment must overflow to nvme")
	}
	if _, tier, ok := r.aud.Mapping(seg.ID{File: "f", Index: 0}); !ok || tier != "ram" {
		t.Fatalf("mapping = %q %v, want ram", tier, ok)
	}
	if _, ok := r.hier.ExclusiveOK(); !ok {
		t.Fatal("exclusivity violated")
	}
}

func TestAsyncRunReturnsBeforeMovesExecute(t *testing.T) {
	r, gm := gatedRig(t, Config{}, 1000)
	deliver(r.eng, up(0, 5))

	done := make(chan struct{})
	go func() {
		r.eng.run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("run() blocked on a gated fetch: decision is not decoupled from execution")
	}
	id := seg.ID{File: "f", Index: 0}
	if resident(r.eng, id) != 0 {
		t.Fatal("model must commit residency at plan time")
	}
	if r.hier.Locate(id) != -1 {
		t.Fatal("payload must not be resident while the fetch is gated")
	}
	gm.release()
	r.eng.Flush()
	if r.hier.Locate(id) != 0 {
		t.Fatal("gated fetch must land after release")
	}
}

func TestAsyncFailedFetchAfterRunReturnedReconciles(t *testing.T) {
	r, gm := gatedRig(t, Config{}, 1000)
	gm.mu.Lock()
	gm.failFetches = 1
	gm.mu.Unlock()

	id := seg.ID{File: "f", Index: 0}
	deliver(r.eng, up(0, 5))
	r.eng.run() // returns with the fetch still gated
	if resident(r.eng, id) != 0 {
		t.Fatal("model must commit residency at plan time")
	}
	gm.release() // the fetch now executes — and fails — after run returned
	r.eng.Flush()

	if r.hier.Locate(id) != -1 {
		t.Fatal("failed fetch must leave nothing resident")
	}
	if resident(r.eng, id) != -1 {
		t.Fatal("failed fetch must reconcile the residency model")
	}
	if st := r.eng.Counters(); st.FailedMoves != 1 {
		t.Fatalf("failed moves = %d, want 1", st.FailedMoves)
	}
	if _, _, ok := r.aud.Mapping(id); ok {
		t.Fatal("failed fetch must not leave a mapping")
	}
	// A later update retries successfully.
	deliver(r.eng, up(0, 6))
	r.eng.Flush()
	if r.hier.Locate(id) != 0 {
		t.Fatal("retry after failure must place the segment")
	}
}

func TestAsyncSupersededQueuedFetchNeverExecutes(t *testing.T) {
	// One mover worker per tier and one PFS stream: a gated blocker fetch
	// occupies the worker so the victim's fetch stays queued.
	cfg := Config{Workers: 1, moverConcurrency: []int{1, 1, 1}}
	r, gm := gatedRig(t, cfg, 1000)

	blocker := seg.ID{File: "f", Index: 9}
	victim := seg.ID{File: "f", Index: 0}
	deliver(r.eng, up(9, 9))
	r.eng.run()
	select {
	case <-gm.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("blocker fetch never started")
	}
	deliver(r.eng, up(0, 5))
	r.eng.run() // victim fetch queued behind the gated blocker
	if resident(r.eng, victim) != 0 {
		t.Fatal("victim must be modeled resident while its fetch is queued")
	}
	// A newer pass drops the victim below the admission floor: the queued
	// fetch must be retargeted to an eviction and cancel out entirely.
	deliver(r.eng, up(0, 0))
	r.eng.run()

	gm.release()
	r.eng.Flush()

	for _, fid := range gm.fetchedIDs() {
		if fid == victim {
			t.Fatal("superseded fetch must not reach the executor")
		}
	}
	if r.hier.Locate(victim) != -1 || resident(r.eng, victim) != -1 {
		t.Fatal("victim must not be resident anywhere")
	}
	if r.hier.Locate(blocker) != 0 {
		t.Fatal("blocker must land in ram")
	}
	ms := r.eng.MoverStats()
	if ms.Superseded == 0 {
		t.Fatalf("superseded counter = %d, want > 0", ms.Superseded)
	}
	if ms.Cancelled == 0 {
		t.Fatalf("cancelled counter = %d, want > 0", ms.Cancelled)
	}
	if _, ok := r.hier.ExclusiveOK(); !ok {
		t.Fatal("exclusivity violated")
	}
}

// TestAsyncSupersessionStressNoDuplicates hammers the engine with
// concurrent score churn and flushes; run under -race. No interleaving
// of supersession, retargeting, and retries may ever leave a segment
// resident in two tiers or let the model drift from the stores.
func TestAsyncSupersessionStressNoDuplicates(t *testing.T) {
	cfg := Config{
		moverConcurrency: []int{2, 2},
		UpdateThreshold:  1 << 30, // only explicit flushes trigger passes
	}
	r := newRig(t, cfg, 500, 500) // 5 segments per tier, 16 contenders

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				deliver(r.eng, up(int64(rnd.Intn(16)), rnd.Float64()*10))
			}
		}(int64(g + 1))
	}
	stop := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.eng.Flush()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	flusher.Wait()
	r.eng.Flush()

	if id, ok := r.hier.ExclusiveOK(); !ok {
		t.Fatalf("duplicate residency of %v after supersession churn", id)
	}
	loads := tierLoad(r.eng)
	for ti, s := range r.hier.Stores() {
		if loads[ti] != s.Used() {
			t.Fatalf("tier %d accounting drift: model=%d store=%d", ti, loads[ti], s.Used())
		}
	}
	for i := int64(0); i < 16; i++ {
		id := seg.ID{File: "f", Index: i}
		actual := r.hier.Locate(id)
		if model := resident(r.eng, id); model != actual {
			t.Fatalf("segment %d: model says tier %d, stores say %d", i, model, actual)
		}
		_, tier, ok := r.aud.Mapping(id)
		if actual == -1 && ok {
			t.Fatalf("segment %d: mapping %q but not resident", i, tier)
		}
		if actual >= 0 && ok && r.hier.Tier(actual).Name() != tier {
			t.Fatalf("segment %d: mapping says %s, store says %s", i, tier, r.hier.Tier(actual).Name())
		}
	}
}

// TestAsyncFailurePathsMirrorSync re-runs the failure suite's churn
// (TestRepeatedFailuresNeverCorruptAccounting) with one mover worker per
// tier and one fetch stream, where a failed hop is always reported before
// the next one of its tier starts.
func TestAsyncFailurePathsMirrorSync(t *testing.T) {
	r, fm := flakyRig(t, Config{Workers: 1, moverConcurrency: []int{1, 1}}, 300, 300)
	for round := 0; round < 20; round++ {
		if round%3 == 0 {
			fm.failFetches.Store(1)
		}
		if round%5 == 0 {
			fm.failTransfer.Store(1)
		}
		for i := int64(0); i < 8; i++ {
			deliver(r.eng, up(i, float64((round+int(i))%10)+0.5))
		}
		r.eng.Flush()
	}
	loads := tierLoad(r.eng)
	for ti, s := range r.hier.Stores() {
		if loads[ti] != s.Used() {
			t.Fatalf("tier %d accounting drift: model=%d store=%d", ti, loads[ti], s.Used())
		}
	}
	if _, ok := r.hier.ExclusiveOK(); !ok {
		t.Fatal("exclusivity violated")
	}
}

// faultyClient is the real I/O client — two halves, vectored fetches, so
// fills wait for room — whose every physical step may be made to fail.
type faultyClient struct {
	*ioclient.Client
	mu  sync.Mutex
	rng *rand.Rand // nil: nothing fails
}

var errInjected = errors.New("injected failure")

func (f *faultyClient) trip() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng != nil && f.rng.Intn(20) == 0 {
		return errInjected
	}
	return nil
}

func (f *faultyClient) Take(id seg.ID, src *tiers.Store) (*tiers.Buf, error) {
	if err := f.trip(); err != nil {
		return nil, err
	}
	return f.Client.Take(id, src)
}

func (f *faultyClient) Land(id seg.ID, b *tiers.Buf, from, dst *tiers.Store, w tiers.RoomWaiter) error {
	if err := f.trip(); err != nil {
		return err
	}
	return f.Client.Land(id, b, from, dst, w)
}

func (f *faultyClient) Evict(id seg.ID, src *tiers.Store) error {
	if err := f.trip(); err != nil {
		return err
	}
	return f.Client.Evict(id, src)
}

func (f *faultyClient) FetchMany(file string, first int64, sizes []int64, dst *tiers.Store, fetched func(), landed func(int, *tiers.Buf, error)) {
	if err := f.trip(); err != nil {
		fetched()
		for i := range sizes {
			landed(i, nil, err)
		}
		return
	}
	f.Client.FetchMany(file, first, sizes, dst, fetched, landed)
}

// TestAsyncEngineStateMachine is the engine-level twin of the mover's
// state-machine test: seeded passes of score churn over tiers a third the
// size of what contends for them — full destinations, swaps between full
// tiers, cascades — with files invalidated under way, passes that overlap
// the moves of the one before, and (every other seed) executor failures.
// At quiescence the model, the stores and the mapping agree, segment by
// segment and byte by byte, and nothing was retried.
func TestAsyncEngineStateMachine(t *testing.T) {
	seeds := int64(500)
	if testing.Short() {
		seeds = 60
	}
	var failed, superseded int64
	for seed := int64(0); seed < seeds; seed++ {
		f, s := runEngineStateMachine(t, seed)
		failed, superseded = failed+f, superseded+s
	}
	t.Logf("%d seeds: %d failed moves reconciled, %d in-flight segments re-placed", seeds, failed, superseded)
	if failed == 0 || superseded == 0 {
		t.Fatal("the driver no longer reaches failures and re-placements")
	}
}

func runEngineStateMachine(t *testing.T, seed int64) (failed, superseded int64) {
	rng := rand.New(rand.NewSource(seed))
	faults := seed%2 == 1
	var fc *faultyClient
	cfg := Config{moverConcurrency: []int{2, 1, 1}, UpdateThreshold: 1 << 30}
	r := newRigWrapped(t, cfg, func(m Mover) Mover {
		fc = &faultyClient{Client: m.(*ioclient.Client)}
		if faults {
			fc.rng = rand.New(rand.NewSource(seed))
		}
		return fc
	}, 300, 400, 500)
	r.fs.Create("g", 1<<20)
	files := []string{"f", "g"}
	invalidated := map[string]bool{}
	const perFile = 18 // 36 segments contend for 12 slots
	for pass, passes := 0, 10+rng.Intn(20); pass < passes; pass++ {
		for n := 1 + rng.Intn(10); n > 0; n-- {
			id := seg.ID{File: files[rng.Intn(2)], Index: int64(rng.Intn(perFile))}
			deliver(r.eng, auditor.Update{ID: id, Score: float64(rng.Intn(12)) / 2, Size: 100})
		}
		if rng.Intn(12) == 0 {
			file := files[rng.Intn(2)]
			invalidated[file] = true
			r.eng.FileInvalidated(file)
		}
		// A pass planned while a failed move of the one before is still to
		// be reconciled plans from a model that is about to be corrected;
		// the passes overlap only where nothing fails.
		if faults || rng.Intn(3) == 0 {
			r.eng.Flush()
		} else {
			r.eng.run()
		}
	}
	r.eng.Flush()

	st := r.eng.MoverStats()
	if st.Outstanding != 0 || st.Retried != 0 || (!faults && st.Failed != 0) {
		t.Fatalf("seed %d: mover stats at quiescence %+v (faults %v)", seed, st, faults)
	}
	if id, ok := r.hier.ExclusiveOK(); !ok {
		t.Fatalf("seed %d: %v is resident in two tiers", seed, id)
	}
	loads := tierLoad(r.eng)
	for ti, s := range r.hier.Stores() {
		if loads[ti] != s.Used() {
			t.Fatalf("seed %d: tier %d accounting drift: model=%d store=%d", seed, ti, loads[ti], s.Used())
		}
	}
	for _, file := range files {
		for i := int64(0); i < perFile; i++ {
			id := seg.ID{File: file, Index: i}
			actual := r.hier.Locate(id)
			if model := resident(r.eng, id); model != actual {
				t.Fatalf("seed %d: %v: model says tier %d, stores say %d", seed, id, model, actual)
			}
			_, tier, ok := r.aud.Mapping(id)
			switch {
			case actual >= 0 && (!ok || tier != r.hier.Tier(actual).Name()):
				t.Fatalf("seed %d: %v is in %s, its mapping says %q (%v)", seed, id, r.hier.Tier(actual).Name(), tier, ok)
			case actual < 0 && ok && !invalidated[file]:
				// A hop that landed as its file was invalidated may map it
				// after the sweep (a read falls through a stale mapping);
				// nothing else may map what is not there.
				t.Fatalf("seed %d: %v is mapped to %q and resident nowhere", seed, id, tier)
			}
			if actual >= 0 {
				want := make([]byte, 100)
				r.fs.ReadAt(file, i*100, want)
				if got, ok := r.hier.Tier(actual).View(id); !ok || !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("seed %d: %v holds the wrong bytes", seed, id)
				} else {
					got.Release()
				}
			}
		}
	}
	r.eng.Stop()
	for _, s := range r.hier.Stores() {
		s.Clear()
	}
	return st.Failed, st.Superseded
}
