package placement

import (
	"math"

	"hfetch/internal/core/auditor"
	amover "hfetch/internal/core/mover"
	"hfetch/internal/core/seg"
	"hfetch/internal/invariant"
)

// hysteresis damps churn: a resident segment whose score moved by less
// than this relative fraction keeps its tier instead of being re-placed
// (and possibly swapped with an equal-scored neighbour).
const hysteresis = 0.2

// Model is Algorithm 1's state as a plain value: per tier, the residents
// (segment -> score and size), their modeled bytes and their score index,
// over the tiers' fixed capacities, fastest tier first. It takes no lock
// and reads no clock; the Engine keeps one under its mu, and the abl-place
// rows drive one bare.
//
// A tier's index (rank) is a min-heap in colder's order with lazy
// deletion — an item stands for a resident only while the resident still
// has the item's score — compacted on the push side (setResident).
type Model struct {
	caps     []int64
	resident []map[seg.ID]entry
	used     []int64
	rank     [][]ranked
}

type entry struct {
	score float64
	size  int64
}

// ranked is one item of a tier's score index.
type ranked struct {
	score float64
	id    seg.ID
}

// colder is the index order, and with it the one tie rule of demotion:
// lowest score first, equal scores by file name, then by segment index.
func colder(a, b ranked) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	if a.id.File != b.id.File {
		return a.id.File < b.id.File
	}
	return a.id.Index < b.id.Index
}

// NewModel returns an empty model of tiers with the given capacities in
// bytes, fastest first.
func NewModel(caps ...int64) *Model {
	m := &Model{
		caps:     caps,
		resident: make([]map[seg.ID]entry, len(caps)),
		used:     make([]int64, len(caps)),
		rank:     make([][]ranked, len(caps)),
	}
	for i := range m.resident {
		m.resident[i] = make(map[seg.ID]entry)
	}
	return m
}

// Plan runs Algorithm 1 for one update — the prefix every rule shares
// (Release), then CalculatePlacement from the fastest tier — updating the
// model and appending the moves it takes to plan.
func (m *Model) Plan(u auditor.Update, plan *[]amover.Move) {
	if cur, ok := m.Release(u, plan); ok {
		m.place(u, cur, 0, plan)
	}
}

// Release is the prefix of every placement rule. A resident whose score
// moved by less than the hysteresis keeps its tier, rescored in place; any
// other leaves the model, so that the watermarks exclude it while it is
// re-placed, and one at or below the floor of 0 is evicted. It returns the
// tier the segment was in (-1: none) and whether a rule must now place it.
func (m *Model) Release(u auditor.Update, plan *[]amover.Move) (cur int, place bool) {
	if u.Size <= 0 {
		return -1, false
	}
	cur = m.Locate(u.ID)
	if cur >= 0 {
		ent := m.resident[cur][u.ID]
		if u.Score > 0 {
			base := max(ent.score, u.Score)
			if base > 0 && math.Abs(u.Score-ent.score)/base < hysteresis && u.Size == ent.size {
				m.setResident(cur, u.ID, entry{score: u.Score, size: ent.size})
				return cur, false
			}
		}
		m.dropResident(cur, u.ID)
	}
	if !(u.Score > 0) { // at or below the floor of 0, or not a number
		m.Put(u, cur, -1, plan)
		return cur, false
	}
	return cur, true
}

// Fits reports whether tier ti has room for size more bytes.
func (m *Model) Fits(ti int, size int64) bool { return m.used[ti]+size <= m.caps[ti] }

// Put settles u's segment in tier ti, or out of the hierarchy for ti < 0,
// and plans its move from cur, the tier Release took it from (-1: the PFS).
func (m *Model) Put(u auditor.Update, cur, ti int, plan *[]amover.Move) {
	if ti >= 0 {
		m.setResident(ti, u.ID, entry{score: u.Score, size: u.Size})
	}
	if cur != ti {
		*plan = append(*plan, amover.Move{ID: u.ID, Size: u.Size, From: cur, To: ti, Trace: u.Trace})
	}
}

// Locate returns the tier holding id, or -1.
func (m *Model) Locate(id seg.ID) int {
	for ti := range m.resident {
		if _, ok := m.resident[ti][id]; ok {
			return ti
		}
	}
	return -1
}

// place implements CalculatePlacement(segment, tier).
func (m *Model) place(u auditor.Update, cur, ti int, plan *[]amover.Move) {
	if ti >= len(m.caps) {
		m.Put(u, cur, -1, plan) // below the hierarchy: not prefetched, or evicted
		return
	}
	if !m.Fits(ti, u.Size) {
		// Tier full for this segment: admit only if it outranks the
		// coldest residents, demoting them to make room (DemoteSegments).
		if u.Score > m.minResident(ti) {
			m.demoteUntilFits(u, ti, plan)
		}
		if !m.Fits(ti, u.Size) {
			m.place(u, cur, ti+1, plan)
			return
		}
	}
	m.Put(u, cur, ti, plan)
}

// demoteUntilFits demotes the coldest residents of ti (strictly colder
// than u), coldest first, one tier down until u fits. Ties are left in
// place — the incoming segment goes deeper instead (deterministic variant
// of the paper's random tie policy). Demotion recurses only into deeper
// tiers, so ti's index is this call's alone.
func (m *Model) demoteUntilFits(u auditor.Update, ti int, plan *[]amover.Move) {
	for !m.Fits(ti, u.Size) {
		c, ok := m.coldest(ti)
		if !ok || !(c.score < u.Score) {
			return
		}
		size := m.resident[ti][c.id].size
		m.popRank(ti)
		m.dropResident(ti, c.id)
		m.place(auditor.Update{ID: c.id, Score: c.score, Size: size}, ti, ti+1, plan)
	}
}

// climbs reports whether u lifts a resident a tier: the tier above the
// segment's has room for it or ranks a resident colder than u, so
// Algorithm 1 would move it there.
func (m *Model) climbs(u auditor.Update) bool {
	ti := m.Locate(u.ID)
	return ti > 0 && (m.Fits(ti-1, u.Size) || u.Score > m.minResident(ti-1))
}

// minResident returns the lowest resident score in tier ti, or +inf when
// empty (an empty-but-too-small tier admits nothing bigger than itself).
func (m *Model) minResident(ti int) float64 {
	if c, ok := m.coldest(ti); ok {
		return c.score
	}
	return math.Inf(1)
}

// dropFile takes every resident segment of file out of the model and
// appends their IDs to dropped.
func (m *Model) dropFile(file string, dropped []seg.ID) []seg.ID {
	for ti := range m.resident {
		for id := range m.resident[ti] {
			if id.File == file {
				m.dropResident(ti, id)
				dropped = append(dropped, id)
			}
		}
	}
	if invariant.Enabled {
		for ti := range m.resident {
			for id := range m.resident[ti] {
				invariant.Assert(id.File != file,
					"dropFile %q left segment %v resident in tier %d", file, id, ti)
			}
		}
		m.check()
	}
	return dropped
}

// reconcile realigns the model with the stores after a failed move: id is
// in tier actual (-1: nowhere) with the stored size, and in no other, so a
// divergence can never duplicate a segment across tiers on a later pass.
func (m *Model) reconcile(id seg.ID, actual int, size int64) {
	for ti := range m.resident {
		if ti == actual {
			continue
		}
		if _, ok := m.resident[ti][id]; ok {
			m.dropResident(ti, id)
		}
	}
	if actual >= 0 {
		if _, ok := m.resident[actual][id]; !ok {
			m.setResident(actual, id, entry{score: 0, size: size})
		}
	}
	if invariant.Enabled {
		// Reconciliation's whole contract: model and store agree on the
		// reconciled segment.
		invariant.Assert(m.Locate(id) == actual,
			"reconcile left model tier %d != store tier %d for %v", m.Locate(id), actual, id)
	}
}

// check asserts the model's accounting: per-tier used bytes are
// non-negative and equal the sum of resident segment sizes, and each index
// is in heap order. A no-op unless built with -tags hfetch_invariants.
func (m *Model) check() {
	if !invariant.Enabled {
		return
	}
	for ti := range m.resident {
		invariant.Assert(m.used[ti] >= 0, "tier %d modeled usage %d < 0", ti, m.used[ti])
		var sum int64
		for _, ent := range m.resident[ti] {
			sum += ent.size
		}
		invariant.Assert(sum == m.used[ti],
			"tier %d modeled usage %d != sum of resident sizes %d", ti, m.used[ti], sum)
		h := m.rank[ti]
		for i := 1; i < len(h); i++ {
			invariant.Assert(!colder(h[i], h[(i-1)/2]), "tier %d index out of heap order at %d", ti, i)
		}
	}
}

// setResident puts id in tier ti with ent, or updates it in place, and
// ranks it. The index is compacted on this side, not when it is popped:
// in-place score updates of a tier that is never full only push.
func (m *Model) setResident(ti int, id seg.ID, ent entry) {
	old, had := m.resident[ti][id]
	m.resident[ti][id] = ent
	m.used[ti] += ent.size - old.size
	if had && old.score == ent.score {
		return // the item it was ranked by still stands
	}
	h := append(m.rank[ti], ranked{ent.score, id})
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !colder(h[i], h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	m.rank[ti] = h
	m.trimIndex(ti)
}

// dropResident takes id out of tier ti; its index items go stale.
func (m *Model) dropResident(ti int, id seg.ID) {
	m.used[ti] -= m.resident[ti][id].size
	delete(m.resident[ti], id)
	m.trimIndex(ti)
}

// trimIndex rebuilds tier ti's index from its residents once stale items
// outnumber them — at least half a tier's worth of pushes and drops apart —
// so the index stays within twice the residents.
func (m *Model) trimIndex(ti int) {
	if len(m.rank[ti]) <= 2*len(m.resident[ti]) {
		return
	}
	h := m.rank[ti][:0]
	for id, ent := range m.resident[ti] {
		h = append(h, ranked{ent.score, id})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	m.rank[ti] = h
}

func siftDown(h []ranked, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && colder(h[c+1], h[c]) {
			c++
		}
		if !colder(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// coldest returns the lowest-ranked resident of tier ti, popping the stale
// items above it; ok is false for an empty tier.
func (m *Model) coldest(ti int) (c ranked, ok bool) {
	for h := m.rank[ti]; len(h) > 0; h = m.popRank(ti) {
		if ent, live := m.resident[ti][h[0].id]; live && ent.score == h[0].score {
			return h[0], true
		}
	}
	return ranked{}, false
}

// popRank removes the top of tier ti's index and returns what is left.
func (m *Model) popRank(ti int) []ranked {
	h := m.rank[ti]
	last := len(h) - 1
	h[0], h[last] = h[last], ranked{}
	h = h[:last]
	siftDown(h, 0)
	m.rank[ti] = h
	return h
}
