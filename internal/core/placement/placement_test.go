package placement

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hfetch/internal/core/auditor"
	"hfetch/internal/core/ioclient"
	"hfetch/internal/core/seg"
	"hfetch/internal/dhm"
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

func TestHotSegmentLandsInFastestTier(t *testing.T) {
	r := newRig(t, Config{}, 1000, 1000)
	r.eng.ScoreUpdated(up(0, 5))
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
	r.eng.ScoreUpdated(up(0, 5))
	r.eng.ScoreUpdated(up(1, 4))
	r.eng.ScoreUpdated(up(2, 3))
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
	r.eng.ScoreUpdated(up(0, 2.0))
	r.eng.Flush()
	if !r.hier.Tier(0).Has(seg.ID{File: "f", Index: 0}) {
		t.Fatal("seed segment must be in ram")
	}
	r.eng.ScoreUpdated(up(1, 2.2))
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
	r.eng.ScoreUpdated(up(0, 5))
	r.eng.ScoreUpdated(up(1, 4))
	r.eng.Flush()
	// Both tiers full; a colder segment must fall below the hierarchy.
	r.eng.ScoreUpdated(up(2, 1))
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
	r.eng.ScoreUpdated(up(0, 3))
	r.eng.Flush()
	r.eng.ScoreUpdated(up(1, 4))
	r.eng.Flush()
	r.eng.ScoreUpdated(up(2, 5))
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
	r.eng.ScoreUpdated(up(0, 5))
	r.eng.Flush()
	if r.hier.Locate(seg.ID{File: "f", Index: 0}) != 0 {
		t.Fatal("seed must be in ram")
	}
	// A hotter segment arrives while segment 0 cools: segment 0 must end
	// up demoted to nvme, segment 2 takes the single RAM slot.
	r.eng.ScoreUpdated(up(2, 6))
	r.eng.ScoreUpdated(up(0, 0.5))
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
	r.eng.ScoreUpdated(up(0, 5))
	r.eng.Flush()
	// A hotter segment displaces it; with no lower tier it is evicted.
	r.eng.ScoreUpdated(up(1, 9))
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

func TestMinScoreFloor(t *testing.T) {
	r := newRig(t, Config{MinScore: 1.0}, 1000)
	r.eng.ScoreUpdated(up(0, 0.5))
	r.eng.Flush()
	if r.hier.Locate(seg.ID{File: "f", Index: 0}) != -1 {
		t.Fatal("segment below the admission floor must not be prefetched")
	}
}

func TestSegmentLargerThanTierSkipsIt(t *testing.T) {
	r := newRig(t, Config{}, 50, 1000) // ram smaller than one segment
	r.eng.ScoreUpdated(up(0, 5))
	r.eng.Flush()
	if got := r.hier.Locate(seg.ID{File: "f", Index: 0}); got != 1 {
		t.Fatalf("oversized segment at tier %d, want 1", got)
	}
}

func TestInvalidationDropsFileEverywhere(t *testing.T) {
	r := newRig(t, Config{}, 200, 200)
	r.fs.Create("g", 1000)
	r.eng.ScoreUpdated(up(0, 5))
	r.eng.ScoreUpdated(auditor.Update{ID: seg.ID{File: "g", Index: 0}, Score: 4, Size: 100})
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
	r.eng.ScoreUpdated(up(0, 5))
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
		r.eng.ScoreUpdated(up(i, float64(5-i)))
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
	r.eng.ScoreUpdated(up(0, 5))
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
	for _, batched := range []bool{true, false} {
		r := newRig(t, Config{UpdateThreshold: 1 << 30, Interval: time.Hour}, 1000)
		r.eng.Start()
		deliver := func(ups ...auditor.Update) {
			if batched {
				r.eng.ScoreBatch(ups)
				return
			}
			for _, u := range ups {
				r.eng.ScoreUpdated(u)
			}
		}
		deliver(up(0, 5), up(1, 4))
		time.Sleep(50 * time.Millisecond)
		if runs := r.eng.Counters().Runs; runs != 0 {
			t.Fatalf("batched %v: %d passes for updates without a hint", batched, runs)
		}
		hint := up(2, 3)
		hint.Ahead = true
		deliver(up(3, 2), hint)
		deadline := time.Now().Add(2 * time.Second)
		for r.eng.Counters().Runs == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if runs := r.eng.Counters().Runs; runs != 1 {
			t.Fatalf("batched %v: %d passes after a hint, want 1", batched, runs)
		}
		for i := int64(0); i < 4; i++ {
			if r.eng.Resident(seg.ID{File: "f", Index: i}) != 0 {
				t.Fatalf("batched %v: segment %d was not decided by the kicked pass", batched, i)
			}
		}
		deliver(up(4, 1))
		r.eng.Flush()
		if runs := r.eng.Counters().Runs; runs != 2 || !r.hier.Tier(0).Has(seg.ID{File: "f", Index: 4}) {
			t.Fatalf("batched %v: Flush: %d passes, want 2 and segment 4 in the tier", batched, runs)
		}
		r.eng.Stop()
	}
}

func TestStopDrainsPending(t *testing.T) {
	r := newRig(t, Config{UpdateThreshold: 1 << 30, Interval: time.Hour}, 1000)
	r.eng.Start()
	r.eng.ScoreUpdated(up(0, 5))
	r.eng.Stop() // final drain must place it
	if !r.hier.Tier(0).Has(seg.ID{File: "f", Index: 0}) {
		t.Fatal("Stop must drain pending updates")
	}
}

func TestDedupLatestUpdateWins(t *testing.T) {
	r := newRig(t, Config{}, 100, 1000)
	r.eng.ScoreUpdated(up(0, 9))
	r.eng.ScoreUpdated(up(0, 0.1)) // same segment, cooled before the run
	r.eng.ScoreUpdated(up(1, 5))
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
			r.eng.ScoreUpdated(up(int64(rng.Intn(40)), rng.Float64()*10))
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
	loads := r.eng.TierLoad()
	for ti, s := range r.hier.Stores() {
		if loads[ti] != s.Used() {
			t.Fatalf("tier %d: model=%d store=%d", ti, loads[ti], s.Used())
		}
	}
}

func TestResidentView(t *testing.T) {
	r := newRig(t, Config{}, 1000)
	if r.eng.Resident(seg.ID{File: "f", Index: 0}) != -1 {
		t.Fatal("unknown segment must report -1")
	}
	r.eng.ScoreUpdated(up(0, 5))
	r.eng.Flush()
	if r.eng.Resident(seg.ID{File: "f", Index: 0}) != 0 {
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
			r.eng.ScoreUpdated(auditor.Update{
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
	r := newRig(t, Config{Hysteresis: 0.2}, 100, 1000)
	r.eng.ScoreUpdated(up(0, 5))
	r.eng.Flush()
	before := r.eng.Counters()
	// 10% drift: within the hysteresis band, no movement.
	r.eng.ScoreUpdated(up(0, 4.6))
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
	r.eng.ScoreUpdated(up(1, 9)) // displaces the now-cold resident
	r.eng.ScoreUpdated(up(0, 0.5))
	r.eng.Flush()
	if r.hier.Locate(seg.ID{File: "f", Index: 1}) != 0 {
		t.Fatal("hot segment must take ram despite hysteresis")
	}
}
