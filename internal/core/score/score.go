// Package score implements HFetch's file segment scoring function,
// Equation (1) of the paper:
//
//	Score_s(t) = Σ_{i=1..k} (1/p)^{(t - t_i)/n}
//
// where k is the number of accesses to segment s, t_i the time of the
// i-th access, n ≥ 1 the count of references to s (segment sequencing
// links), and p ≥ 2 the decay base. A segment's contribution decays to
// 1/p of its value every n time units, so a segment is hot when it is
// accessed frequently, recently, and has many references.
//
// Two evaluation strategies are provided:
//
//   - Windowed: keeps the last Window access timestamps and evaluates the
//     sum exactly. Used as the reference implementation and whenever n
//     changes (the per-term exponent depends on the current n).
//   - Incremental: folds the running sum forward in O(1) per access via
//     S(t2) = S(t1)·(1/p)^{(t2-t1)/n} + 1. Exact while n stays fixed.
//
// Property tests assert the two agree when n is constant.
package score

import (
	"math"
	"time"
)

// Params configures the scoring model.
type Params struct {
	// P is the decay base; the paper requires p ≥ 2. Defaults to 2.
	P float64
	// Unit is the length of one decay time step. Defaults to 1s.
	Unit time.Duration
	// Window bounds the number of access timestamps retained for exact
	// (windowed) evaluation. Defaults to 32. Older accesses have decayed
	// to negligible contributions by then for any p ≥ 2.
	Window int
}

// DefaultParams returns the paper's defaults: p = 2, 1-second decay unit,
// 32-entry window.
func DefaultParams() Params {
	return Params{P: 2, Unit: time.Second, Window: 32}
}

func (p Params) normalized() Params {
	if p.P < 2 {
		p.P = 2
	}
	if p.Unit <= 0 {
		p.Unit = time.Second
	}
	if p.Window <= 0 {
		p.Window = 32
	}
	return p
}

// Stats holds the per-segment access statistics the auditor maintains:
// access frequency (K), recency (Last), sequencing (Refs, Prev), and the
// folded incremental score.
type Stats struct {
	// K is the total number of accesses observed.
	K int64
	// Last is the time of the most recent access.
	Last time.Time
	// Refs is n: the count of references to this segment (≥ 1 once the
	// segment has been accessed). Sequencing links from predecessor
	// segments increase it.
	Refs int64
	// Sum is the incrementally folded score value as of Last.
	Sum float64
	// History holds up to Window most recent access times (oldest first)
	// for exact evaluation.
	History []time.Time
}

// Model evaluates segment scores under fixed parameters. Model is
// stateless and safe for concurrent use.
type Model struct {
	p      float64
	lnInvP float64 // ln(1/p), taken once: decay is one Exp per term
	unit   float64 // seconds per decay step
	window int
}

// NewModel builds a Model from params (normalized to valid values).
func NewModel(params Params) *Model {
	params = params.normalized()
	return &Model{p: params.P, lnInvP: -math.Log(params.P), unit: params.Unit.Seconds(), window: params.Window}
}

// P returns the decay base in use.
func (m *Model) P() float64 { return m.p }

// Window returns the history window length.
func (m *Model) Window() int { return m.window }

// decay returns (1/p)^{dt/n} for elapsed dt and reference count n.
func (m *Model) decay(dt time.Duration, n int64) float64 {
	if n < 1 {
		n = 1
	}
	steps := dt.Seconds() / m.unit / float64(n)
	if steps <= 0 {
		return 1
	}
	return math.Exp(steps * m.lnInvP)
}

// OnAccess records an access at time t into st, updating frequency,
// recency, history and the incremental sum. Out-of-order accesses
// (t before st.Last) are treated as occurring at st.Last, which keeps the
// fold monotone.
func (m *Model) OnAccess(st *Stats, t time.Time) {
	if st.K > 0 || st.Sum > 0 {
		dt := t.Sub(st.Last)
		if dt < 0 {
			dt = 0
			t = st.Last
		}
		st.Sum = st.Sum*m.decay(dt, st.Refs) + 1
	} else {
		st.Sum = 1
	}
	st.K++
	if st.Refs < 1 {
		st.Refs = 1
	}
	st.Last = t
	switch n := len(st.History); {
	case n >= m.window:
		// Full: shift down in place, so a history never reallocates once
		// it has reached the window.
		st.History = st.History[:copy(st.History, st.History[n-m.window+1:])]
	case n > 0 && n == cap(st.History):
		// Read again: the history gets its whole window now, one
		// allocation instead of append's log2(window) doublings spread
		// over the segment's next accesses. A segment read once keeps
		// its single timestamp.
		st.History = append(make([]time.Time, 0, m.window), st.History...)
	}
	st.History = append(st.History, t)
}

// AddRef records an additional reference to the segment (sequencing link)
// without counting an access. Because the exponent of every term depends
// on n, the incremental sum is rebuilt from the history window.
func (m *Model) AddRef(st *Stats) {
	st.Refs++
	if st.K > 0 {
		st.Sum = m.Windowed(st, st.Last)
	}
}

// OnRef records an anticipatory reference at time t: the segment was not
// read, but a predecessor linked to it was, so its probability of being
// accessed soon rises. The boost contributes weight (a fraction of a full
// access, typically 0.5) to the folded sum without counting toward the
// access frequency K. This is how segment sequencing turns into
// server-push readahead: linked successors gain score before their first
// read of the epoch.
func (m *Model) OnRef(st *Stats, t time.Time, weight float64) {
	if weight <= 0 {
		return
	}
	if st.Refs < 1 {
		st.Refs = 1
	}
	if st.K > 0 || st.Sum > 0 {
		dt := t.Sub(st.Last)
		if dt < 0 {
			dt = 0
			t = st.Last
		}
		st.Sum = st.Sum*m.decay(dt, st.Refs) + weight
	} else {
		st.Sum = weight
	}
	st.Last = t
}

// Score returns the incremental score of st evaluated at time t.
func (m *Model) Score(st *Stats, t time.Time) float64 {
	if st.K == 0 && st.Sum == 0 {
		return 0
	}
	dt := t.Sub(st.Last)
	if dt < 0 {
		dt = 0
	}
	return st.Sum * m.decay(dt, st.Refs)
}

// Windowed evaluates Equation (1) exactly over the retained history
// window at time t. It is the reference implementation.
func (m *Model) Windowed(st *Stats, t time.Time) float64 {
	var s float64
	for _, ti := range st.History {
		dt := t.Sub(ti)
		if dt < 0 {
			dt = 0
		}
		s += m.decay(dt, st.Refs)
	}
	return s
}
