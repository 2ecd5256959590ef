package harness

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hfetch/internal/core/auditor"
	amover "hfetch/internal/core/mover"
	"hfetch/internal/core/placement"
	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
)

// AblationPlacement compares Algorithm 1 against the random and
// round-robin placement alternatives §IV-A mentions, on a Zipf-skewed
// score stream fed to a bare placement.Model in the engine's passes (each
// segment once, hottest first, every 128 updates): the metric is how much
// of the hottest decile the model holds in the fastest tier, plus the
// planning cost per 4 096 updates in microseconds (plan_us).
func AblationPlacement(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	const segSize = 1 << 10
	var rr uint64 // round-robin's counter, from 0 each repeat
	rules := []struct {
		name string
		rule placeRule
	}{
		{"score(alg1)", (*placement.Model).Plan},
		{"random", flatRule(fnvPick)},
		{"roundrobin", flatRule(func(seg.ID) uint64 { rr++; return rr - 1 })},
	}
	var rows []Row
	for _, r := range rules {
		var hotFrac float64
		var planSec float64
		for rep := 0; rep < opts.Repeats; rep++ {
			m := placement.NewModel(32*segSize, 96*segSize) // ram, nvme
			rr = 0
			var pending [256]bool // segment k scores 1/(k+1): index order is hottest first
			var plan []amover.Move
			flush := func() {
				for k, due := range pending {
					if due {
						r.rule(m, auditor.Update{ID: seg.ID{File: "f", Index: int64(k)}, Score: 1 / float64(k+1), Size: segSize}, &plan)
					}
				}
				pending, plan = [256]bool{}, plan[:0]
			}
			rng := rand.New(rand.NewSource(int64(rep)))
			start := time.Now()
			for j := 0; j < 4096; j++ {
				pending[rng.Intn(256)] = true
				if j%128 == 0 {
					flush()
				}
			}
			flush()
			planSec += time.Since(start).Seconds()
			hot := 0
			for k := int64(0); k < 26; k++ {
				if m.Locate(seg.ID{File: "f", Index: k}) == 0 {
					hot++
				}
			}
			hotFrac += float64(hot) / 26
		}
		rows = append(rows, Row{
			Figure: "abl-place",
			Config: "zipf-256seg",
			System: r.name,
			Extra: map[string]float64{
				"hot_decile_in_ram_pct": hotFrac / float64(opts.Repeats) * 100,
				"plan_us":               planSec / float64(opts.Repeats) * 1e6,
			},
		})
	}
	return rows, nil
}

// placeRule places one score update in a model, appending its moves.
type placeRule func(m *placement.Model, u auditor.Update, plan *[]amover.Move)

// flatRule is the "sub-optimal, quicker to calculate" placement of §IV-A
// over abl-place's two tiers: past the prefix every rule shares, the
// segment goes in the first tier with room, counting from the one pick
// names and wrapping, and is evicted when none has room. It ignores scores
// and never demotes.
func flatRule(pick func(seg.ID) uint64) placeRule {
	const tiers = 2
	return func(m *placement.Model, u auditor.Update, plan *[]amover.Move) {
		cur, ok := m.Release(u, plan)
		if !ok {
			return
		}
		start := int(pick(u.ID) % tiers)
		for i := 0; i < tiers; i++ {
			if ti := (start + i) % tiers; m.Fits(ti, u.Size) {
				m.Put(u, cur, ti, plan)
				return
			}
		}
		m.Put(u, cur, -1, plan)
	}
}

// fnvPick is the random rule's tier pick: an FNV-1a hash of the segment,
// so runs are reproducible, finished with splitmix64's mixer so that
// every bit of the pick depends on every bit of the index (the index
// term alone is odd times the index, whose low bit is the index's).
func fnvPick(id seg.ID) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id.File); i++ {
		h = (h ^ uint64(id.File[i])) * 1099511628211
	}
	h ^= uint64(id.Index) * 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// AblationScoring sweeps the decay base p of Equation (1) and reports
// how long a once-hot segment stays above an eviction threshold — the
// retention/adaptivity trade-off the parameter controls.
func AblationScoring(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	var rows []Row
	for _, p := range []float64{2, 4, 8} {
		m := score.NewModel(score.Params{P: p, Unit: 100 * time.Millisecond})
		var st score.Stats
		t0 := time.Unix(0, 0)
		for i := 0; i < 10; i++ {
			m.OnAccess(&st, t0)
		}
		// How many decay units until the score falls below 1?
		units := 0
		for ; units < 1000; units++ {
			at := t0.Add(time.Duration(units) * 100 * time.Millisecond)
			if m.Score(&st, at) < 1 {
				break
			}
		}
		rows = append(rows, Row{
			Figure: "abl-score",
			Config: fmt.Sprintf("p=%g", p),
			System: "eq1",
			Extra:  map[string]float64{"retention_units": float64(units)},
		})
	}
	return rows, nil
}

// AblationSegmentation compares fixed-grain and adaptive segmentation on
// a mixed request stream: segment count (metadata footprint) and bytes
// the prefetch unit would over-fetch relative to what was requested.
func AblationSegmentation(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	const fileSize = 1 << 24
	rng := rand.New(rand.NewSource(11))
	type req struct{ off, ln int64 }
	reqs := make([]req, 4096)
	for i := range reqs {
		// Mixed workload: small random reads with occasional large scans.
		ln := int64(rng.Intn(48<<10) + 4<<10)
		if i%16 == 0 {
			ln = int64(rng.Intn(512<<10) + 128<<10)
		}
		reqs[i] = req{off: int64(rng.Intn(fileSize - int(ln))), ln: ln}
	}

	var rows []Row
	// Fixed 64 KiB grain.
	fixed := seg.NewSegmenter(64 << 10)
	var fixedSegs = map[int64]struct{}{}
	var fixedOver int64
	for _, r := range reqs {
		ids := fixed.Cover("f", r.off, r.ln)
		var covered int64
		for _, id := range ids {
			fixedSegs[id.Index] = struct{}{}
			covered += fixed.RangeOf(id, fileSize).Len
		}
		fixedOver += covered - r.ln
	}
	rows = append(rows, Row{
		Figure: "abl-seg", Config: "mixed-4096reqs", System: "fixed-64k",
		Extra: map[string]float64{
			"segments":      float64(len(fixedSegs)),
			"overfetch_mib": float64(fixedOver) / (1 << 20),
		},
	})

	// Adaptive segmentation derives boundaries from the stream itself.
	ad := seg.NewAdaptive(1 << 16)
	var adOver int64
	for _, r := range reqs {
		var covered int64
		for _, rg := range ad.Observe(r.off, r.ln) {
			covered += rg.Len
		}
		adOver += covered - r.ln
	}
	rows = append(rows, Row{
		Figure: "abl-seg", Config: "mixed-4096reqs", System: "adaptive",
		Extra: map[string]float64{
			"segments":      float64(len(ad.Segments())),
			"overfetch_mib": float64(adOver) / (1 << 20),
		},
	})
	return rows, nil
}

// AblationCachePolicy compares LRU and LRFU eviction on a hot set that
// an iterative kernel reads four times per round, each round ending in a
// cold scan larger than the cache: the scan floods an LRU cache and
// evicts the hot set, while LRFU's frequency term protects it. Both run
// as victim rules over one bare cacheModel, one access per tick, so the
// metric (how much of the hot set is resident after the last scan) is
// the same on every host and every repeat.
func AblationCachePolicy(opts Opts) ([]Row, error) {
	const (
		hotSegs  = 8
		coldSegs = 64
		rounds   = 6
	)
	var rows []Row
	for _, pol := range []struct {
		name   string
		victim victimRule
	}{
		{"lru", lru},
		{"lrfu", lrfu(0.01)},
	} {
		c := newCacheModel(hotSegs+coldSegs/4, pol.victim)
		for r := 0; r < rounds; r++ {
			for range 4 {
				for i := range int64(hotSegs) {
					c.access(i)
				}
			}
			for i := range int64(coldSegs) {
				c.access(hotSegs + i)
			}
		}
		hot := 0
		for i := range int64(hotSegs) {
			if c.ticks[i] != nil {
				hot++
			}
		}
		rows = append(rows, Row{
			Figure: "abl-cache",
			Config: "hotset-vs-scan",
			System: pol.name,
			Extra:  map[string]float64{"hot_resident_pct": float64(hot) / hotSegs * 100},
		})
	}
	return rows, nil
}

// victimRule values a resident segment from the ticks it was accessed
// at since it entered the cache; the cache evicts the lowest value.
type victimRule func(ticks []int, now int) float64

// lru values a segment by its last access.
func lru(ticks []int, _ int) float64 { return float64(ticks[len(ticks)-1]) }

// lrfu is Lee et al.'s combined recency-frequency, the policy Eq. (1)
// derives from: CRF(now) = Σ (1/2)^{λ(now−t_i)} over the segment's
// accesses, λ per tick. λ→1 behaves like LRU, λ→0 like LFU.
func lrfu(lambda float64) victimRule {
	return func(ticks []int, now int) float64 {
		var crf float64
		for _, t := range ticks {
			crf += math.Exp2(-lambda * float64(now-t))
		}
		return crf
	}
}

// cacheModel is abl-cache's cache: a capacity in segments and, for each
// resident segment, its access ticks on a clock that advances one tick
// per access. A miss evicts the segment its victim rule values lowest
// (the lower index on a tie) when the cache is full, then inserts. It has
// no payloads, locks, clock reads or goroutines.
type cacheModel struct {
	capacity int
	victim   victimRule
	now      int
	ticks    map[int64][]int
}

func newCacheModel(capacity int, victim victimRule) *cacheModel {
	return &cacheModel{capacity: capacity, victim: victim, ticks: make(map[int64][]int)}
}

// access reads segment id.
func (c *cacheModel) access(id int64) {
	c.now++
	if t, ok := c.ticks[id]; ok {
		c.ticks[id] = append(t, c.now)
		return
	}
	if len(c.ticks) >= c.capacity {
		victim, low := int64(-1), math.Inf(1)
		for k, t := range c.ticks {
			if v := c.victim(t, c.now); v < low || v == low && k < victim {
				victim, low = k, v
			}
		}
		delete(c.ticks, victim)
	}
	c.ticks[id] = []int{c.now}
}
