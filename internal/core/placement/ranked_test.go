package placement

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hfetch/internal/core/auditor"
	"hfetch/internal/core/seg"
	"hfetch/internal/dhm"
	"hfetch/internal/invariant"
	"hfetch/internal/tiers"
)

// scanEngine is the engine's model as it was before tiers were ranked, kept
// as the reference the ranked engine is held to: min_score is a walk over
// the tier's residents, DemoteSegments collects every colder resident and
// sorts them. The one thing it takes from the ranked engine is the tie
// rule (colder): the scan's own was map order.
type scanEngine struct {
	caps       []int64
	resident   []map[seg.ID]entry
	used       []int64
	minScore   float64
	hysteresis float64
	plan       []move
}

func newScanEngine(hysteresis float64, caps ...int64) *scanEngine {
	s := &scanEngine{caps: caps, used: make([]int64, len(caps)), hysteresis: hysteresis}
	for range caps {
		s.resident = append(s.resident, map[seg.ID]entry{})
	}
	return s
}

func (s *scanEngine) locate(id seg.ID) int {
	for ti := range s.resident {
		if _, ok := s.resident[ti][id]; ok {
			return ti
		}
	}
	return -1
}

func (s *scanEngine) update(u auditor.Update) {
	if u.Size <= 0 {
		return
	}
	cur := s.locate(u.ID)
	if cur >= 0 {
		ent := s.resident[cur][u.ID]
		if h := s.hysteresis; h > 0 && u.Score > s.minScore {
			base := math.Max(ent.score, u.Score)
			if base > 0 && math.Abs(u.Score-ent.score)/base < h && u.Size == ent.size {
				s.resident[cur][u.ID] = entry{score: u.Score, size: ent.size}
				return
			}
		}
		delete(s.resident[cur], u.ID)
		s.used[cur] -= ent.size
	}
	if !(u.Score > s.minScore) {
		if cur >= 0 {
			s.plan = append(s.plan, move{id: u.ID, size: u.Size, from: cur, to: -1, trace: u.Trace})
		}
		return
	}
	s.place(u, cur, 0)
}

func (s *scanEngine) place(u auditor.Update, cur, ti int) {
	if ti >= len(s.caps) {
		if cur >= 0 {
			s.plan = append(s.plan, move{id: u.ID, size: u.Size, from: cur, to: -1, trace: u.Trace})
		}
		return
	}
	if s.used[ti]+u.Size > s.caps[ti] {
		if u.Score > s.minResident(ti) {
			s.demoteUntilFits(u, ti)
		}
		if s.used[ti]+u.Size > s.caps[ti] {
			s.place(u, cur, ti+1)
			return
		}
	}
	s.resident[ti][u.ID] = entry{score: u.Score, size: u.Size}
	s.used[ti] += u.Size
	if cur != ti {
		s.plan = append(s.plan, move{id: u.ID, size: u.Size, from: cur, to: ti, trace: u.Trace})
	}
}

func (s *scanEngine) minResident(ti int) float64 {
	min := math.Inf(1)
	for _, ent := range s.resident[ti] {
		if ent.score < min {
			min = ent.score
		}
	}
	return min
}

func (s *scanEngine) demoteUntilFits(u auditor.Update, ti int) {
	var cands []ranked
	for id, ent := range s.resident[ti] {
		if ent.score < u.Score {
			cands = append(cands, ranked{ent.score, id})
		}
	}
	slices.SortFunc(cands, func(a, b ranked) int {
		switch {
		case colder(a, b):
			return -1
		case colder(b, a):
			return 1
		}
		return 0
	})
	for _, c := range cands {
		if s.used[ti]+u.Size <= s.caps[ti] {
			return
		}
		size := s.resident[ti][c.id].size
		delete(s.resident[ti], c.id)
		s.used[ti] -= size
		s.place(auditor.Update{ID: c.id, Score: c.score, Size: size}, ti, ti+1)
	}
}

func (s *scanEngine) dropFile(file string) {
	for ti := range s.resident {
		for id, ent := range s.resident[ti] {
			if id.File == file {
				delete(s.resident[ti], id)
				s.used[ti] -= ent.size
			}
		}
	}
}

// reconcile is Engine.reconcile with the store's answer given.
func (s *scanEngine) reconcile(id seg.ID, actual int, size int64) {
	for ti := range s.resident {
		if ent, ok := s.resident[ti][id]; ok && ti != actual {
			delete(s.resident[ti], id)
			s.used[ti] -= ent.size
		}
	}
	if actual >= 0 {
		if _, ok := s.resident[actual][id]; !ok {
			s.resident[actual][id] = entry{score: 0, size: size}
			s.used[actual] += size
		}
	}
}

// traceOp is one step of an update trace: a score update, a file
// invalidated, or a failed move reconciled against a store that holds the
// segment in tier actual (-1: nowhere).
type traceOp struct {
	u      auditor.Update
	inval  string
	actual int
	recon  bool
}

func (o traceOp) String() string {
	switch {
	case o.inval != "":
		return "invalidate " + o.inval
	case o.recon:
		return fmt.Sprintf("reconcile %v in tier %d", o.u.ID, o.actual)
	}
	return fmt.Sprintf("update %v score %v size %d", o.u.ID, o.u.Score, o.u.Size)
}

// rankedPair is the ranked engine and the scan model side by side over the
// same empty-device hierarchy; step feeds both one op and compares what
// they planned and what they hold.
type rankedPair struct {
	eng  *Engine
	ref  *scanEngine
	hier *tiers.Hierarchy
}

func newRankedPair(t testing.TB, caps ...int64) *rankedPair {
	names := []string{"ram", "nvme", "bb"}
	var stores []*tiers.Store
	for i, c := range caps {
		stores = append(stores, tiers.NewStore(names[i], c, nil))
	}
	hier := tiers.NewHierarchy(stores...)
	eng := New(Config{}, hier, noopMover{}, newTestAuditor())
	t.Cleanup(func() {
		eng.Stop()
		for _, s := range stores {
			s.Clear()
		}
	})
	return &rankedPair{eng: eng, ref: newScanEngine(eng.cfg.Hysteresis, caps...), hier: hier}
}

func (p *rankedPair) step(op traceOp) error {
	var plan []move
	p.ref.plan = p.ref.plan[:0]
	switch {
	case op.inval != "":
		p.eng.dropFile(op.inval)
		p.ref.dropFile(op.inval)
	case op.recon:
		// reconcile asks the stores: show them what the trace says.
		p.hier.DeleteFile(op.u.ID.File)
		if op.actual >= 0 {
			if err := p.hier.Tier(op.actual).Put(op.u.ID, make([]byte, op.u.Size)); err != nil {
				return nil // the trace asks for more than the tier holds: skip
			}
		}
		p.eng.reconcile(move{id: op.u.ID})
		p.ref.reconcile(op.u.ID, op.actual, op.u.Size)
		p.hier.DeleteFile(op.u.ID.File)
	default:
		p.eng.mu.Lock()
		p.eng.plan(op.u, &plan)
		p.eng.checkModelLocked()
		p.eng.mu.Unlock()
		p.ref.update(op.u)
	}
	if !slices.Equal(plan, p.ref.plan) {
		return fmt.Errorf("ranked engine planned %v, the scan %v", plan, p.ref.plan)
	}
	p.eng.mu.Lock()
	defer p.eng.mu.Unlock()
	for ti := range p.ref.resident {
		if p.eng.used[ti] != p.ref.used[ti] || len(p.eng.resident[ti]) != len(p.ref.resident[ti]) {
			return fmt.Errorf("tier %d: ranked engine holds %d segments / %d bytes, the scan %d / %d", ti,
				len(p.eng.resident[ti]), p.eng.used[ti], len(p.ref.resident[ti]), p.ref.used[ti])
		}
		for id, ent := range p.ref.resident[ti] {
			if got, ok := p.eng.resident[ti][id]; !ok || got != ent {
				return fmt.Errorf("tier %d: %v is %+v in the scan, %+v (%v) in the ranked engine", ti, id, ent, got, ok)
			}
		}
		if n := len(p.eng.rank[ti]); n > 2*len(p.eng.resident[ti]) {
			return fmt.Errorf("tier %d: index of %d items over %d residents", ti, n, len(p.eng.resident[ti]))
		}
	}
	return nil
}

// randomTrace draws a trace over two files, mixed sizes, scores from a
// short ladder (ties) or the unit interval, small drifts (in-place
// hysteresis updates), floor-level scores (evictions), invalidations and
// reconciles.
func randomTrace(rng *rand.Rand, n int) []traceOp {
	files := []string{"a", "b"}
	ladder := []float64{0.25, 0.5, 0.5, 1, 2, 2, 4}
	last := map[seg.ID]float64{}
	ops := make([]traceOp, 0, n)
	for len(ops) < n {
		id := seg.ID{File: files[rng.Intn(2)], Index: int64(rng.Intn(40))}
		size := int64(100 + 50*rng.Intn(3))
		switch k := rng.Intn(100); {
		case k < 3:
			ops = append(ops, traceOp{inval: id.File})
		case k < 6:
			ops = append(ops, traceOp{u: auditor.Update{ID: id, Size: size}, recon: true, actual: rng.Intn(4) - 1})
		case k < 10:
			ops = append(ops, traceOp{u: auditor.Update{ID: id, Score: 0, Size: size}})
		case k < 35 && last[id] > 0: // drift inside the hysteresis band
			last[id] *= 1 + 0.15*(rng.Float64()-0.5)
			ops = append(ops, traceOp{u: auditor.Update{ID: id, Score: last[id], Size: size}})
		case k < 70:
			last[id] = ladder[rng.Intn(len(ladder))]
			ops = append(ops, traceOp{u: auditor.Update{ID: id, Score: last[id], Size: size, Trace: uint64(len(ops))}})
		default:
			last[id] = rng.Float64() * 4
			ops = append(ops, traceOp{u: auditor.Update{ID: id, Score: last[id], Size: size}})
		}
	}
	return ops
}

// The ranked engine emits the plan the scan engine does, update by update,
// and ends every step holding what it holds — over fixed traces that pin
// the tie rule, and over seeded ones.
func TestRankedPlanMatchesScan(t *testing.T) {
	u := func(file string, idx int64, score float64, size int64) traceOp {
		return traceOp{u: auditor.Update{ID: seg.ID{File: file, Index: idx}, Score: score, Size: size}}
	}
	fixed := map[string][]traceOp{
		// Three equal scores fill ram; a hotter segment demotes the lowest
		// (file, index) first, whatever order they arrived in.
		"ties go by file then index": {
			u("b", 1, 1, 100), u("a", 7, 1, 100), u("a", 3, 1, 100),
			u("c", 0, 2, 100), u("c", 1, 2, 200),
		},
		// A tie with the coldest resident displaces nobody: it goes deeper.
		"a tie does not displace": {
			u("a", 0, 1, 100), u("a", 1, 1, 100), u("a", 2, 1, 100), u("a", 3, 1, 100),
		},
		// Cascade through three tiers and out, mixed sizes.
		"cascade": {
			u("a", 0, 1, 150), u("a", 1, 2, 150), u("a", 2, 3, 200), u("a", 3, 4, 300),
			u("a", 4, 5, 300), u("a", 5, 6, 250), u("a", 6, 7, 300), u("a", 0, 9, 150),
		},
		// An in-place update leaves a stale item on top of the index; the
		// next demotion must look past it.
		"stale top": {
			u("a", 0, 1, 100), u("a", 1, 1.1, 100), u("a", 2, 1.2, 100),
			u("a", 0, 1.15, 100), u("a", 3, 5, 100), u("a", 4, 5, 100),
		},
	}
	for name, ops := range fixed {
		p := newRankedPair(t, 300, 300, 300)
		for i, op := range ops {
			if err := p.step(op); err != nil {
				t.Fatalf("%s, step %d (%v): %v", name, i, op, err)
			}
		}
	}
	p := newRankedPair(t, 300, 300, 300)
	for _, op := range fixed["ties go by file then index"][:4] {
		p.step(op)
	}
	if p.eng.Resident(seg.ID{File: "a", Index: 3}) != 1 || p.eng.Resident(seg.ID{File: "a", Index: 7}) != 0 {
		t.Fatal("of three equal scores the lowest (file, index) is demoted first")
	}

	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newRankedPair(t, int64(300+100*rng.Intn(8)), int64(400+100*rng.Intn(8)), int64(500+100*rng.Intn(8)))
		for i, op := range randomTrace(rng, 400) {
			if err := p.step(op); err != nil {
				t.Fatalf("seed %d, step %d (%v): %v", seed, i, op, err)
			}
		}
	}
}

// FuzzRankedPlan decodes its input into an update trace, five bytes an op,
// and holds the ranked engine to the scan engine over it.
func FuzzRankedPlan(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 0, 0, 2, 10, 0, 0, 0, 3, 20, 0, 0, 1, 1, 30, 1, 0})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0123456789abcdef))
	seed := make([]byte, 0, 600)
	for rng := rand.New(rand.NewSource(7)); len(seed) < cap(seed); {
		seed = append(seed, byte(rng.Intn(256)))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newRankedPair(t, 300, 500, 700)
		for i := 0; i+5 <= len(data) && i < 5*2000; i += 5 {
			b := data[i : i+5]
			id := seg.ID{File: string(rune('a' + b[0]%3)), Index: int64(b[1] % 32)}
			op := traceOp{u: auditor.Update{ID: id, Score: float64(b[2]) / 16, Size: int64(100 + 50*(b[3]%3))}}
			switch b[4] % 16 {
			case 0:
				op = traceOp{inval: id.File}
			case 1:
				op.recon, op.actual = true, int(b[2]%4)-1
			case 2:
				op.u.Score = math.NaN() // never admitted, never ranked
			}
			if err := p.step(op); err != nil {
				t.Fatalf("op %d (%v): %v", i/5, op, err)
			}
		}
	})
}

// A tier that is never full never asks for its minimum, so nothing pops its
// index: a million in-place score updates of 2 048 residents must leave it
// within twice the residents all the same (compaction is on the push side).
func TestRankedIndexStaysBoundedWithoutPops(t *testing.T) {
	const residents = 2048
	p := newRankedPair(t, 100*residents*2, 1000)
	e := p.eng
	rng := rand.New(rand.NewSource(1))
	score := make([]float64, residents)
	e.mu.Lock()
	defer e.mu.Unlock()
	var plan []move
	for i := range score {
		score[i] = 1 + rng.Float64()
		e.plan(auditor.Update{ID: seg.ID{File: "f", Index: int64(i)}, Score: score[i], Size: 100}, &plan)
	}
	updates := 1_000_000
	if testing.Short() {
		updates = 100_000
	}
	for n := 0; n < updates; n++ {
		i := rng.Intn(residents)
		score[i] *= 1 + 0.1*(rng.Float64()-0.5) // inside the hysteresis band
		e.plan(auditor.Update{ID: seg.ID{File: "f", Index: int64(i)}, Score: score[i], Size: 100}, &plan)
		if len(e.rank[0]) > 2*residents {
			t.Fatalf("after %d in-place updates the index holds %d items over %d residents", n+1, len(e.rank[0]), residents)
		}
	}
	if len(plan) != residents || len(e.resident[0]) != residents {
		t.Fatalf("%d moves planned, %d resident; want the %d first placements and nothing else", len(plan), len(e.resident[0]), residents)
	}
	e.checkModelLocked()
}

// A steady-state pass — 256 updates delivered, planned, merged, ordered,
// submitted to the mover and landed against an executor that moves
// nothing — allocates next to nothing per move: the plan, the merge table,
// the phase order and the batch are the engine's scratch, the mover's
// records are pooled.
func TestSteadyStatePassAllocatesNothingPerMove(t *testing.T) {
	if invariant.Enabled {
		t.Skip("assertions box their arguments")
	}
	const n = 256
	hier := tiers.NewHierarchy(tiers.NewStore("ram", 32*100, nil), tiers.NewStore("nvme", 64*100, nil), tiers.NewStore("bb", 96*100, nil))
	eng := New(Config{UpdateThreshold: 1 << 30}, hier, noopMover{}, newTestAuditor())
	defer eng.Stop()
	// Two halves of 2n segments take turns being the hot half, each pass
	// hotter than the last: a pass fetches most of its half and demotes or
	// evicts the other's.
	var halves [2][]auditor.Update
	for h := range halves {
		for i := 0; i < n; i++ {
			halves[h] = append(halves[h], auditor.Update{ID: seg.ID{File: "f", Index: int64(h*n + i)}, Score: float64(1 + (i*7)%n), Size: 100})
		}
	}
	var moves int64
	pass := 0
	run := func() {
		ups := halves[pass%2]
		for i := range ups {
			ups[i].Score += 2 * n
		}
		before := eng.MoverStats().Submitted
		eng.ScoreBatch(ups)
		eng.Flush()
		moves += eng.MoverStats().Submitted - before
		pass++
	}
	for i := 0; i < 4; i++ {
		run() // the model, the scratch, the record pool and the mapping records reach their size
	}
	moves = 0
	const rounds = 20
	allocs := testing.AllocsPerRun(rounds, run) * rounds
	if moves < rounds*n/2 {
		t.Fatalf("%d moves in %d passes: the passes no longer move their segments", moves, rounds+1)
	}
	if perMove := allocs / float64(moves); perMove > 0.1 {
		t.Fatalf("%.3f allocations per move (%.0f over %d moves), budget 0.1", perMove, allocs, moves)
	}
	t.Logf("%.4f allocations per move over %d moves", allocs/float64(moves), moves)
}

// BenchmarkPlacementPass4096 is benchmark/'s placement.pass drive: 4 096
// fresh score updates delivered and planned into 64/128/256 MiB tiers, the
// plan submitted to the mover and drained against an executor that moves
// nothing — the pass, the submit and the landing of ~4 000 no-op moves.
func BenchmarkPlacementPass4096(b *testing.B) {
	const n, size = 4096, 64 << 10
	hier := tiers.NewHierarchy(tiers.NewStore("ram", 64<<20, nil), tiers.NewStore("nvme", 128<<20, nil), tiers.NewStore("bb", 256<<20, nil))
	rng := rand.New(rand.NewSource(1))
	ups := make([]auditor.Update, n)
	for i := range ups {
		ups[i] = auditor.Update{ID: seg.ID{File: "drive/pass", Index: int64(i)}, Score: rng.Float64(), Size: size}
	}
	var ms runtime.MemStats
	var mallocs, moves uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := New(Config{Workers: 4}, hier, noopMover{}, newTestAuditor())
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		eng.ScoreBatch(ups)
		eng.Flush()
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		c := eng.Counters()
		moves += uint64(c.Placements + c.Promotions + c.Demotions + c.Evictions)
		eng.Stop()
		b.StartTimer()
	}
	b.ReportMetric(float64(mallocs)/float64(moves), "allocs/move")
	b.ReportMetric(float64(moves)/float64(b.N), "moves/pass")
}

func newTestAuditor() *auditor.Auditor {
	stats := dhm.New(dhm.Config{Name: "stats", Self: "n0"}, nil)
	maps := dhm.New(dhm.Config{Name: "maps", Self: "n0"}, nil)
	return auditor.New(auditor.Config{Segmenter: seg.NewSegmenter(100)}, stats, maps)
}

// noopMover is benchmark/'s: a Mover whose moves succeed and move nothing.
type noopMover struct{}

func (noopMover) Fetch(seg.ID, int64, *tiers.Store) error           { return nil }
func (noopMover) Transfer(seg.ID, *tiers.Store, *tiers.Store) error { return nil }
func (noopMover) Evict(seg.ID, *tiers.Store) error                  { return nil }
