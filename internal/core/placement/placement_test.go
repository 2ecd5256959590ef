package placement

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hfetch/internal/core/auditor"
	"hfetch/internal/core/ioclient"
	"hfetch/internal/core/seg"
	"hfetch/internal/dhm"
	"hfetch/internal/events"
	"hfetch/internal/invariant"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

// rig bundles a complete placement stack over nil devices.
type rig struct {
	fs   *pfs.FS
	hier *tiers.Hierarchy
	aud  *auditor.Auditor
	eng  *Engine
	segr *seg.Segmenter
}

func newRig(t *testing.T, cfg Config, capacities ...int64) *rig {
	return newRigWrapped(t, cfg, nil, capacities...)
}

// newRigWrapped builds the rig with the I/O client optionally wrapped
// (fault injection, gating) before the engine is constructed: the mover
// pipeline captures its executor at New.
func newRigWrapped(t *testing.T, cfg Config, wrap func(Mover) Mover, capacities ...int64) *rig {
	t.Helper()
	fs := pfs.New(nil)
	fs.Create("f", 1<<20)
	segr := seg.NewSegmenter(100)
	names := []string{"ram", "nvme", "bb"}
	var stores []*tiers.Store
	for i, c := range capacities {
		stores = append(stores, tiers.NewStore(names[i], c, nil))
	}
	hier := tiers.NewHierarchy(stores...)
	stats := dhm.New(dhm.Config{Name: "stats", Self: "n0"}, nil)
	maps := dhm.New(dhm.Config{Name: "maps", Self: "n0"}, nil)
	aud := auditor.New(auditor.Config{Segmenter: segr}, stats, maps)
	var mover Mover = ioclient.New(fs, segr)
	if wrap != nil {
		mover = wrap(mover)
	}
	eng := New(cfg, hier, mover, aud)
	aud.SetSink(eng)
	t.Cleanup(eng.Stop)
	return &rig{fs: fs, hier: hier, aud: aud, eng: eng, segr: segr}
}

func up(idx int64, score float64) auditor.Update {
	return auditor.Update{ID: seg.ID{File: "f", Index: idx}, Score: score, Size: 100}
}

// deliver hands e ups as one delivery, as a drained event batch does.
func deliver(e *Engine, ups ...auditor.Update) { e.ScoreBatch(ups) }

func TestHotSegmentLandsInFastestTier(t *testing.T) {
	r := newRig(t, Config{}, 1000, 1000)
	deliver(r.eng, up(0, 5))
	r.eng.Flush()
	if !r.hier.Tier(0).Has(seg.ID{File: "f", Index: 0}) {
		t.Fatal("hot segment must be resident in ram")
	}
	_, tier, ok := r.aud.Mapping(seg.ID{File: "f", Index: 0})
	if !ok || tier != "ram" {
		t.Fatalf("mapping = %q %v, want ram", tier, ok)
	}
}

func TestOverflowCascadesToNextTier(t *testing.T) {
	// RAM holds 2 segments; the 3rd (colder) must land in nvme.
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
}

func TestHotterSegmentDemotesColdest(t *testing.T) {
	// Paper's example: RAM min score 2.0, new segment 2.2 arrives -> the
	// 2.0 segment is demoted, the 2.2 one takes its place.
	r := newRig(t, Config{}, 100, 1000)
	deliver(r.eng, up(0, 2.0))
	r.eng.Flush()
	if !r.hier.Tier(0).Has(seg.ID{File: "f", Index: 0}) {
		t.Fatal("seed segment must be in ram")
	}
	deliver(r.eng, up(1, 2.2))
	r.eng.Flush()
	if !r.hier.Tier(0).Has(seg.ID{File: "f", Index: 1}) {
		t.Fatal("hotter segment must displace the resident")
	}
	if !r.hier.Tier(1).Has(seg.ID{File: "f", Index: 0}) {
		t.Fatal("displaced segment must be demoted to nvme, not dropped")
	}
	if _, tier, _ := r.aud.Mapping(seg.ID{File: "f", Index: 0}); tier != "nvme" {
		t.Fatalf("demoted mapping = %q, want nvme", tier)
	}
	st := r.eng.Counters()
	if st.Demotions != 1 {
		t.Fatalf("demotions = %d, want 1", st.Demotions)
	}
}

func TestColdSegmentDoesNotDisplaceHotter(t *testing.T) {
	r := newRig(t, Config{}, 100, 100)
	deliver(r.eng, up(0, 5))
	deliver(r.eng, up(1, 4))
	r.eng.Flush()
	// Both tiers full; a colder segment must fall below the hierarchy.
	deliver(r.eng, up(2, 1))
	r.eng.Flush()
	if r.hier.Locate(seg.ID{File: "f", Index: 2}) != -1 {
		t.Fatal("cold segment must not be prefetched when outranked everywhere")
	}
	if !r.hier.Tier(0).Has(seg.ID{File: "f", Index: 0}) || !r.hier.Tier(1).Has(seg.ID{File: "f", Index: 1}) {
		t.Fatal("hotter residents must be untouched")
	}
}

func TestCascadingDemotionsThroughThreeTiers(t *testing.T) {
	r := newRig(t, Config{}, 100, 100, 100)
	deliver(r.eng, up(0, 3))
	r.eng.Flush()
	deliver(r.eng, up(1, 4))
	r.eng.Flush()
	deliver(r.eng, up(2, 5))
	r.eng.Flush()
	// 2 (5) in ram, 1 (4) in nvme, 0 (3) in bb.
	if r.hier.Locate(seg.ID{File: "f", Index: 2}) != 0 ||
		r.hier.Locate(seg.ID{File: "f", Index: 1}) != 1 ||
		r.hier.Locate(seg.ID{File: "f", Index: 0}) != 2 {
		t.Fatalf("cascade wrong: locations %d %d %d",
			r.hier.Locate(seg.ID{File: "f", Index: 2}),
			r.hier.Locate(seg.ID{File: "f", Index: 1}),
			r.hier.Locate(seg.ID{File: "f", Index: 0}))
	}
}

func TestScoreDropDemotesResident(t *testing.T) {
	r := newRig(t, Config{}, 100, 1000)
	deliver(r.eng, up(0, 5))
	r.eng.Flush()
	if r.hier.Locate(seg.ID{File: "f", Index: 0}) != 0 {
		t.Fatal("seed must be in ram")
	}
	// A hotter segment arrives while segment 0 cools: segment 0 must end
	// up demoted to nvme, segment 2 takes the single RAM slot.
	deliver(r.eng, up(2, 6))
	deliver(r.eng, up(0, 0.5))
	r.eng.Flush()
	if got := r.hier.Locate(seg.ID{File: "f", Index: 0}); got != 1 {
		t.Fatalf("cooled segment at tier %d, want 1 (demoted)", got)
	}
	if r.hier.Locate(seg.ID{File: "f", Index: 2}) != 0 {
		t.Fatal("hotter segment must own ram")
	}
}

func TestEvictionBelowLastTier(t *testing.T) {
	r := newRig(t, Config{}, 100)
	deliver(r.eng, up(0, 5))
	r.eng.Flush()
	// A hotter segment displaces it; with no lower tier it is evicted.
	deliver(r.eng, up(1, 9))
	r.eng.Flush()
	if r.hier.Locate(seg.ID{File: "f", Index: 0}) != -1 {
		t.Fatal("displaced segment must be evicted from a one-tier hierarchy")
	}
	if _, _, ok := r.aud.Mapping(seg.ID{File: "f", Index: 0}); ok {
		t.Fatal("evicted segment must lose its mapping")
	}
	if st := r.eng.Counters(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

// TestMinScoreFloor: the admission floor is 0. An update scoring 0, less
// or NaN is never placed, and a resident whose update scores 0 is
// evicted.
func TestMinScoreFloor(t *testing.T) {
	r := newRig(t, Config{}, 1000)
	deliver(r.eng, up(0, 0), up(1, -1), up(2, math.NaN()), up(3, 5))
	r.eng.Flush()
	for idx := int64(0); idx < 3; idx++ {
		if got := r.hier.Locate(seg.ID{File: "f", Index: idx}); got != -1 {
			t.Fatalf("segment %d, at or below the floor, was placed in tier %d", idx, got)
		}
	}
	if got := r.hier.Locate(seg.ID{File: "f", Index: 3}); got != 0 {
		t.Fatalf("segment above the floor in tier %d, want 0", got)
	}
	deliver(r.eng, up(3, 0))
	r.eng.Flush()
	if got := r.hier.Locate(seg.ID{File: "f", Index: 3}); got != -1 {
		t.Fatalf("resident whose update scores 0 is in tier %d, want evicted", got)
	}
	if st := r.eng.Counters(); st.Placements != 1 || st.Evictions != 1 {
		t.Fatalf("counters %+v, want 1 placement and 1 eviction", st)
	}
}

func TestSegmentLargerThanTierSkipsIt(t *testing.T) {
	r := newRig(t, Config{}, 50, 1000) // ram smaller than one segment
	deliver(r.eng, up(0, 5))
	r.eng.Flush()
	if got := r.hier.Locate(seg.ID{File: "f", Index: 0}); got != 1 {
		t.Fatalf("oversized segment at tier %d, want 1", got)
	}
}

func TestInvalidationDropsFileEverywhere(t *testing.T) {
	r := newRig(t, Config{}, 200, 200)
	r.fs.Create("g", 1000)
	deliver(r.eng, up(0, 5))
	deliver(r.eng, auditor.Update{ID: seg.ID{File: "g", Index: 0}, Score: 4, Size: 100})
	r.eng.Flush()
	r.eng.FileInvalidated("f")
	r.eng.Flush()
	if r.hier.Locate(seg.ID{File: "f", Index: 0}) != -1 {
		t.Fatal("invalidated file must be dropped")
	}
	if _, _, ok := r.aud.Mapping(seg.ID{File: "f", Index: 0}); ok {
		t.Fatal("invalidated mapping must be removed")
	}
	if r.hier.Locate(seg.ID{File: "g", Index: 0}) == -1 {
		t.Fatal("other files must survive an invalidation")
	}
}

func TestInvalidationBeatsPendingUpdates(t *testing.T) {
	r := newRig(t, Config{}, 1000)
	deliver(r.eng, up(0, 5))
	r.eng.FileInvalidated("f") // same run: update must be discarded
	r.eng.Flush()
	if r.hier.Locate(seg.ID{File: "f", Index: 0}) != -1 {
		t.Fatal("update racing an invalidation must not be placed")
	}
}

func TestUpdateThresholdTriggersWithoutFlush(t *testing.T) {
	r := newRig(t, Config{UpdateThreshold: 5, Interval: time.Hour}, 1000)
	r.eng.Start()
	defer r.eng.Stop()
	for i := int64(0); i < 5; i++ {
		deliver(r.eng, up(i, float64(5-i)))
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.hier.Tier(0).Len() == 5 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("threshold trigger did not run the engine; resident=%d", r.hier.Tier(0).Len())
}

func TestIntervalTriggers(t *testing.T) {
	r := newRig(t, Config{UpdateThreshold: 1 << 30, Interval: 20 * time.Millisecond}, 1000)
	r.eng.Start()
	defer r.eng.Stop()
	deliver(r.eng, up(0, 5))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.hier.Tier(0).Has(seg.ID{File: "f", Index: 0}) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("interval trigger did not run the engine")
}

// TestAheadUpdateKicksThePass: with both triggers out of reach, a
// delivery that carries a readahead hint starts a pass at once and that
// pass takes the ordinary updates pending beside it; one without a hint
// waits, and Flush still runs whatever is pending.
func TestAheadUpdateKicksThePass(t *testing.T) {
	r := newRig(t, Config{UpdateThreshold: 1 << 30, Interval: time.Hour}, 1000)
	r.eng.Start()
	deliver(r.eng, up(0, 5), up(1, 4))
	time.Sleep(50 * time.Millisecond)
	if runs := r.eng.Counters().Runs; runs != 0 {
		t.Fatalf("%d passes for updates without a hint", runs)
	}
	hint := up(2, 3)
	hint.Ahead = true
	deliver(r.eng, up(3, 2), hint)
	deadline := time.Now().Add(2 * time.Second)
	for r.eng.Counters().Runs == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if runs := r.eng.Counters().Runs; runs != 1 {
		t.Fatalf("%d passes after a hint, want 1", runs)
	}
	for i := int64(0); i < 4; i++ {
		if resident(r.eng, seg.ID{File: "f", Index: i}) != 0 {
			t.Fatalf("segment %d was not decided by the kicked pass", i)
		}
	}
	deliver(r.eng, up(4, 1))
	r.eng.Flush()
	if runs := r.eng.Counters().Runs; runs != 2 || !r.hier.Tier(0).Has(seg.ID{File: "f", Index: 4}) {
		t.Fatalf("Flush: %d passes, want 2 and segment 4 in the tier", runs)
	}
}

// TestHintLiftsResidentAboveTheCut: a segment resident in the deepest tier
// that a sequential reader is about to reach is hinted at its reader's
// score, not at the half access of its own Eq. (1) score, so one pass lifts
// it over the colder residents of both tiers above into the fastest.
func TestHintLiftsResidentAboveTheCut(t *testing.T) {
	r := newRig(t, Config{UpdateThreshold: 1 << 20, Interval: time.Hour}, 600, 200, 1000)
	for i := int64(100); i < 106; i++ {
		deliver(r.eng, up(i, 0.8)) // ram's six slots
	}
	deliver(r.eng, up(106, 0.7)) // nvme's two
	deliver(r.eng, up(107, 0.7))
	deliver(r.eng, up(2, 0.6))
	r.eng.Flush()
	target := seg.ID{File: "f", Index: 2}
	if got := resident(r.eng, target); got != 2 {
		t.Fatalf("segment 2 resident in tier %d before the reader, want 2", got)
	}
	r.aud.StartEpoch("f", 1<<20)
	now := time.Now()
	for i := int64(0); i < 2; i++ { // a run from segment 0 arms on its second read
		r.aud.HandleBatch([]events.Event{{Op: events.OpRead, File: "f", Offset: i * 100, Length: 100, Time: now}})
	}
	if hints := r.aud.Counters().Hints; hints == 0 {
		t.Fatal("the reader was not hinted")
	}
	runs := r.eng.Counters().Runs
	r.eng.Flush()
	if got, passes := resident(r.eng, target), r.eng.Counters().Runs-runs; got != 0 || passes != 1 {
		t.Fatalf("segment 2 in tier %d after %d passes, want tier 0 after 1", got, passes)
	}
}

// TestClimbingUpdateStartsPass: with both triggers out of reach, an update
// of a resident that beats the coldest resident of the tier above, or finds
// room there, starts a pass at once; one that does neither waits.
func TestClimbingUpdateStartsPass(t *testing.T) {
	r := newRig(t, Config{UpdateThreshold: 1 << 20, Interval: time.Hour}, 200, 1000)
	deliver(r.eng, up(0, 5), up(1, 4), up(2, 1), up(3, 0.5))
	r.eng.Flush()
	r.eng.Start()
	placedWithin := func(idx int64, d time.Duration) bool {
		for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if resident(r.eng, seg.ID{File: "f", Index: idx}) == 0 && r.hier.Tier(0).Has(seg.ID{File: "f", Index: idx}) {
				return true
			}
		}
		return false
	}
	runs := r.eng.Counters().Runs
	deliver(r.eng, up(2, 3)) // below ram's coldest, 4
	if placedWithin(2, 50*time.Millisecond) || r.eng.Counters().Runs != runs {
		t.Fatal("an update below the tier above's coldest was decided at once")
	}
	deliver(r.eng, up(2, 4.5))
	if !placedWithin(2, 2*time.Second) {
		t.Fatalf("an update above the tier above's coldest was not placed; segment 2 in tier %d",
			resident(r.eng, seg.ID{File: "f", Index: 2}))
	}
	// Segment 2 leaving ram for good (below the floor) makes room there,
	// and segment 3's next update climbs into it outranking no one.
	deliver(r.eng, up(2, 0))
	r.eng.Flush()
	deliver(r.eng, up(3, 0.7))
	if !placedWithin(3, 2*time.Second) {
		t.Fatalf("an update with room in the tier above was not placed; segment 3 in tier %d",
			resident(r.eng, seg.ID{File: "f", Index: 3}))
	}
}

func TestStopDrainsPending(t *testing.T) {
	r := newRig(t, Config{UpdateThreshold: 1 << 30, Interval: time.Hour}, 1000)
	r.eng.Start()
	deliver(r.eng, up(0, 5))
	r.eng.Stop() // final drain must place it
	if !r.hier.Tier(0).Has(seg.ID{File: "f", Index: 0}) {
		t.Fatal("Stop must drain pending updates")
	}
}

func TestDedupLatestUpdateWins(t *testing.T) {
	r := newRig(t, Config{}, 100, 1000)
	deliver(r.eng, up(0, 9))
	deliver(r.eng, up(0, 0.1)) // same segment, cooled before the run
	deliver(r.eng, up(1, 5))
	r.eng.Flush()
	// Latest score 0.1 must be the one used: segment 1 gets RAM.
	if !r.hier.Tier(0).Has(seg.ID{File: "f", Index: 1}) {
		t.Fatal("segment 1 must win ram")
	}
	if got := r.hier.Locate(seg.ID{File: "f", Index: 0}); got != 1 {
		t.Fatalf("deduped segment at %d, want 1", got)
	}
}

func TestExclusivityInvariantUnderChurn(t *testing.T) {
	r := newRig(t, Config{}, 300, 500, 700)
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			deliver(r.eng, up(int64(rng.Intn(40)), rng.Float64()*10))
		}
		r.eng.Flush()
		if id, ok := r.hier.ExclusiveOK(); !ok {
			t.Fatalf("round %d: exclusivity violated by %v", round, id)
		}
		for ti, s := range r.hier.Stores() {
			if s.Used() > s.Capacity() {
				t.Fatalf("round %d: tier %d over capacity", round, ti)
			}
		}
	}
	// Engine model must agree with the stores.
	loads := tierLoad(r.eng)
	for ti, s := range r.hier.Stores() {
		if loads[ti] != s.Used() {
			t.Fatalf("tier %d: model=%d store=%d", ti, loads[ti], s.Used())
		}
	}
}

func TestResidentView(t *testing.T) {
	r := newRig(t, Config{}, 1000)
	if resident(r.eng, seg.ID{File: "f", Index: 0}) != -1 {
		t.Fatal("unknown segment must report -1")
	}
	deliver(r.eng, up(0, 5))
	r.eng.Flush()
	if resident(r.eng, seg.ID{File: "f", Index: 0}) != 0 {
		t.Fatal("placed segment must report tier 0")
	}
}

func TestManyFilesInterleaved(t *testing.T) {
	r := newRig(t, Config{}, 500, 500)
	for i := 0; i < 5; i++ {
		r.fs.Create(fmt.Sprintf("f%d", i), 1000)
	}
	for i := 0; i < 5; i++ {
		for j := int64(0); j < 2; j++ {
			deliver(r.eng, auditor.Update{
				ID: seg.ID{File: fmt.Sprintf("f%d", i), Index: j}, Score: float64(i + 1), Size: 100,
			})
		}
	}
	r.eng.Flush()
	if _, ok := r.hier.ExclusiveOK(); !ok {
		t.Fatal("exclusivity violated")
	}
	// Hierarchy fits exactly 10 segments; everything placed.
	if got := r.hier.Tier(0).Len() + r.hier.Tier(1).Len(); got != 10 {
		t.Fatalf("placed %d segments, want 10", got)
	}
	// Hottest file's segments should be in ram.
	if !r.hier.Tier(0).Has(seg.ID{File: "f4", Index: 0}) {
		t.Fatal("hottest file must be in ram")
	}
}

func TestHysteresisKeepsTierOnSmallDrift(t *testing.T) {
	r := newRig(t, Config{}, 100, 1000)
	deliver(r.eng, up(0, 5))
	r.eng.Flush()
	before := r.eng.Counters()
	// 10% drift: within the hysteresis band, no movement.
	deliver(r.eng, up(0, 4.6))
	r.eng.Flush()
	after := r.eng.Counters()
	if got := after.Promotions + after.Demotions + after.Evictions -
		(before.Promotions + before.Demotions + before.Evictions); got != 0 {
		t.Fatalf("small drift caused %d moves", got)
	}
	if r.hier.Locate(seg.ID{File: "f", Index: 0}) != 0 {
		t.Fatal("segment must stay in ram")
	}
	// A big drop still demotes/evicts (one-tier hierarchy: falls out when
	// displaced; here it just stays since nothing competes).
	deliver(r.eng, up(1, 9)) // displaces the now-cold resident
	deliver(r.eng, up(0, 0.5))
	r.eng.Flush()
	if r.hier.Locate(seg.ID{File: "f", Index: 1}) != 0 {
		t.Fatal("hot segment must take ram despite hysteresis")
	}
}

// TestInvalidationPassAllocs: a placement pass that drops a resident
// 32-segment file — mover cancel, the stores' DeleteFile, the model's
// entries and the file's mappings — counted alone, between passes that
// put the file back. It cost 14 allocations when each pass made a fresh
// invalidated set and the engine and the store grew their lists of
// dropped segments by append.
func TestInvalidationPassAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("allocation counts are for the production build")
	}
	const n, passes = 32, 50
	r := newRig(t, Config{}, n*100)
	ups := make([]auditor.Update, n)
	for i := range ups {
		ups[i] = up(int64(i), 5)
	}
	var ms runtime.MemStats
	var total uint64
	for p := 0; p <= passes; p++ {
		deliver(r.eng, ups...)
		r.eng.Flush()
		if used := r.hier.Tier(0).Used(); used != n*100 {
			t.Fatalf("pass %d: %d bytes resident before the invalidation", p, used)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		r.eng.FileInvalidated("f")
		r.eng.Flush()
		runtime.ReadMemStats(&ms)
		if p > 0 { // the first pass sizes the scratch
			total += ms.Mallocs - before
		}
		if used := r.hier.Tier(0).Used(); used != 0 {
			t.Fatalf("pass %d: %d bytes resident after the invalidation", p, used)
		}
	}
	// Whole allocations per pass, as testing.AllocsPerRun counts: a rare
	// one of the runtime's (a parked waiter's record) averages away.
	allocs := total / passes
	t.Logf("an invalidation pass over %d resident segments: %d allocs (%d in %d passes)", n, allocs, total, passes)
	if allocs > 0 {
		t.Fatalf("an invalidation pass over %d resident segments costs %d allocs, budget 0", n, allocs)
	}
}
