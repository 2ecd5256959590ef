package score

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestFirstAccessScoresOne(t *testing.T) {
	m := NewModel(DefaultParams())
	var st Stats
	m.OnAccess(&st, t0)
	if got := m.Score(&st, t0); got != 1 {
		t.Fatalf("score after one access = %v, want 1", got)
	}
	if st.K != 1 || st.Refs != 1 {
		t.Fatalf("stats = %+v, want K=1 Refs=1", st)
	}
}

func TestScoreDecaysByPPerUnit(t *testing.T) {
	m := NewModel(Params{P: 2, Unit: time.Second})
	var st Stats
	m.OnAccess(&st, t0)
	got := m.Score(&st, t0.Add(time.Second))
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("score after 1 unit = %v, want 0.5", got)
	}
	got = m.Score(&st, t0.Add(3*time.Second))
	if math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("score after 3 units = %v, want 0.125", got)
	}
}

func TestRefsSlowDecay(t *testing.T) {
	m := NewModel(Params{P: 2, Unit: time.Second})
	var a, b Stats
	m.OnAccess(&a, t0)
	m.OnAccess(&b, t0)
	m.AddRef(&b) // b now has n=2
	ta := m.Score(&a, t0.Add(2*time.Second))
	tb := m.Score(&b, t0.Add(2*time.Second))
	if tb <= ta {
		t.Fatalf("more references must decay slower: n=1 → %v, n=2 → %v", ta, tb)
	}
	if math.Abs(tb-0.5) > 1e-12 { // (1/2)^{2/2}
		t.Fatalf("n=2 score after 2 units = %v, want 0.5", tb)
	}
}

func TestFrequencyAccumulates(t *testing.T) {
	m := NewModel(DefaultParams())
	var st Stats
	for i := 0; i < 5; i++ {
		m.OnAccess(&st, t0)
	}
	if got := m.Score(&st, t0); math.Abs(got-5) > 1e-12 {
		t.Fatalf("5 simultaneous accesses = %v, want 5", got)
	}
}

func TestRecencyBeatsStaleFrequency(t *testing.T) {
	m := NewModel(Params{P: 2, Unit: 100 * time.Millisecond})
	var hot, stale Stats
	// stale: 10 accesses long ago. hot: 2 accesses just now.
	for i := 0; i < 10; i++ {
		m.OnAccess(&stale, t0)
	}
	now := t0.Add(time.Second) // 10 decay units later
	m.OnAccess(&hot, now)
	m.OnAccess(&hot, now)
	if m.Score(&hot, now) <= m.Score(&stale, now) {
		t.Fatalf("recent accesses must outrank stale ones: hot=%v stale=%v",
			m.Score(&hot, now), m.Score(&stale, now))
	}
}

func TestOutOfOrderAccessClamped(t *testing.T) {
	m := NewModel(DefaultParams())
	var st Stats
	m.OnAccess(&st, t0.Add(time.Second))
	m.OnAccess(&st, t0) // earlier timestamp
	if st.Last != t0.Add(time.Second) {
		t.Fatalf("Last regressed to %v", st.Last)
	}
	if got := m.Score(&st, t0.Add(time.Second)); math.Abs(got-2) > 1e-12 {
		t.Fatalf("clamped score = %v, want 2", got)
	}
}

func TestScoreBeforeLastClamps(t *testing.T) {
	m := NewModel(DefaultParams())
	var st Stats
	m.OnAccess(&st, t0)
	if got := m.Score(&st, t0.Add(-time.Hour)); got != 1 {
		t.Fatalf("score at earlier t = %v, want clamp to 1", got)
	}
}

func TestWindowBoundsHistory(t *testing.T) {
	m := NewModel(DefaultParams())
	var st Stats
	for i := 0; i < 40; i++ {
		m.OnAccess(&st, t0.Add(time.Duration(i)*time.Millisecond))
	}
	if st.N != Window || Window != 32 {
		t.Fatalf("%d access times held, want the window's %d (32)", st.N, Window)
	}
	if st.K != 40 {
		t.Fatalf("K = %d, want 40", st.K)
	}
}

func TestParamsNormalization(t *testing.T) {
	m := NewModel(Params{P: 0.5, Unit: -1})
	if m.P() != 2 || m.unit != 1 {
		t.Fatalf("normalized P=%v unit=%vs, want 2 and 1s", m.P(), m.unit)
	}
}

func TestZeroStatsScoreZero(t *testing.T) {
	m := NewModel(DefaultParams())
	var st Stats
	if got := m.Score(&st, t0); got != 0 {
		t.Fatalf("empty stats score = %v, want 0", got)
	}
	if got := m.Windowed(&st, t0); got != 0 {
		t.Fatalf("empty windowed = %v, want 0", got)
	}
}

// Property: incremental and windowed evaluation agree while n is constant
// and the access count stays within the window.
func TestIncrementalMatchesWindowed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewModel(Params{P: 2 + float64(rng.Intn(6)), Unit: 50 * time.Millisecond})
		var st Stats
		now := t0
		for i := 0; i < 30; i++ {
			now = now.Add(time.Duration(rng.Intn(200)) * time.Millisecond)
			m.OnAccess(&st, now)
		}
		eval := now.Add(time.Duration(rng.Intn(500)) * time.Millisecond)
		inc := m.Score(&st, eval)
		win := m.Windowed(&st, eval)
		return math.Abs(inc-win) < 1e-9*(1+win)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: scores are monotonically non-increasing in time between
// accesses and bounded by K.
func TestScoreBoundsAndMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewModel(DefaultParams())
		var st Stats
		now := t0
		k := rng.Intn(20) + 1
		for i := 0; i < k; i++ {
			now = now.Add(time.Duration(rng.Intn(100)) * time.Millisecond)
			m.OnAccess(&st, now)
		}
		prev := math.Inf(1)
		for i := 0; i < 10; i++ {
			s := m.Score(&st, now.Add(time.Duration(i*100)*time.Millisecond))
			if s > prev+1e-12 || s > float64(k)+1e-9 || s < 0 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a higher decay base p decays at least as fast.
func TestHigherPDecaysFaster(t *testing.T) {
	m2 := NewModel(Params{P: 2, Unit: time.Second})
	m8 := NewModel(Params{P: 8, Unit: time.Second})
	var a, b Stats
	m2.OnAccess(&a, t0)
	m8.OnAccess(&b, t0)
	for i := 1; i <= 5; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		if m8.Score(&b, at) > m2.Score(&a, at)+1e-12 {
			t.Fatalf("p=8 should decay faster at step %d", i)
		}
	}
}

func TestOnRefBoostsUnaccessedSegment(t *testing.T) {
	m := NewModel(DefaultParams())
	var st Stats
	m.OnRef(&st, t0, 0.5)
	if got := m.Score(&st, t0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("score after ref boost = %v, want 0.5", got)
	}
	if st.K != 0 {
		t.Fatalf("K = %d, want 0 (refs are not accesses)", st.K)
	}
}

func TestOnRefThenAccessAccumulates(t *testing.T) {
	m := NewModel(DefaultParams())
	var st Stats
	m.OnRef(&st, t0, 0.5)
	m.OnAccess(&st, t0)
	if got := m.Score(&st, t0); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("score after ref+access = %v, want 1.5", got)
	}
}

func TestOnRefNonPositiveWeightIgnored(t *testing.T) {
	m := NewModel(DefaultParams())
	var st Stats
	m.OnRef(&st, t0, 0)
	m.OnRef(&st, t0, -1)
	if got := m.Score(&st, t0); got != 0 {
		t.Fatalf("score = %v, want 0", got)
	}
}

// TestDecayIsPowWithinRounding pins decay — one Exp over a logarithm
// taken once — to the math.Pow(1/p, steps) it replaced: within a
// relative 2e-13 wherever the result is at least 1e-300, over steps from
// 1e-9 to 1000. What is left is the rounding of ln p and of steps·ln p,
// each half an ulp of an exponent of at most 690: 1.5e-13 together, and
// that is the worst measured (p = 3, 622 steps). Sums nothing has touched
// must still tie, so no elapsed time is exactly 1.
func TestDecayIsPowWithinRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, p := range []float64{2, 3, 10} {
		m := NewModel(Params{P: p, Unit: time.Second})
		worst, worstAt := 0.0, 0.0
		check := func(dt time.Duration, n int64) {
			steps := dt.Seconds() / float64(n)
			want := math.Pow(1/p, steps)
			got := m.decay(dt, n)
			if want < 1e-300 {
				return
			}
			if rel := math.Abs(got-want) / want; rel > worst {
				worst, worstAt = rel, steps
			}
		}
		for dt := time.Nanosecond; dt <= 1000*time.Second; dt = dt*5/4 + 1 {
			check(dt, 1)
		}
		for i := 0; i < 20000; i++ {
			// Log-uniform over the twelve decades, n as links make it.
			dt := time.Duration(math.Exp(rng.Float64() * math.Log(1000e9)))
			check(dt, 1+rng.Int63n(12))
		}
		if worst > 2e-13 {
			t.Errorf("p = %v: decay is %.3g (relative) off math.Pow at %.6g steps, bound 2e-13", p, worst, worstAt)
		}
		t.Logf("p = %v: worst relative difference %.3g at %.6g steps", p, worst, worstAt)
		if got := m.decay(0, 1); got != 1 {
			t.Errorf("p = %v: decay(0) = %v, want exactly 1", p, got)
		}
		if got := m.decay(-time.Second, 3); got != 1 {
			t.Errorf("p = %v: decay of a negative interval = %v, want exactly 1", p, got)
		}
	}
}

// TestHistoryShiftsInPlace: a full window drops its oldest time by
// moving the rest down; the array holds the last Window accesses, oldest
// first, in Unix nanoseconds.
func TestHistoryShiftsInPlace(t *testing.T) {
	m := NewModel(DefaultParams())
	var st Stats
	var all []int64
	for i := 0; i < 50; i++ {
		at := t0.Add(time.Duration(i) * time.Millisecond)
		m.OnAccess(&st, at)
		all = append(all, at.UnixNano())
		want := all[max(0, len(all)-Window):]
		if st.N != len(want) {
			t.Fatalf("access %d: %d times held, want %d", i, st.N, len(want))
		}
		for j := range want {
			if st.Stamps[j] != want[j] {
				t.Fatalf("access %d: Stamps[%d] = %d, want %d", i, j, st.Stamps[j], want[j])
			}
		}
	}
}

// TestOnAccessAllocatesNothing: the access times are inline in the
// record, so no access — the first included — allocates.
func TestOnAccessAllocatesNothing(t *testing.T) {
	m := NewModel(DefaultParams())
	st := new(Stats)
	i := 0
	if got := testing.AllocsPerRun(100, func() {
		if i == 0 {
			*st = Stats{}
		}
		m.OnAccess(st, t0.Add(time.Duration(i)*time.Millisecond))
		i = (i + 1) % 50
	}); got != 0 {
		t.Fatalf("an access allocates %v times, want 0", got)
	}
}

// refStats is Stats as it was while a segment's access times were a
// []time.Time that grew to the window, with the model's rules over it
// as they were: the oracle for the inline Unix-nanosecond window.
type refStats struct {
	k, refs int64
	last    time.Time
	sum     float64
	history []time.Time
}

func (r *refStats) onAccess(m *Model, t time.Time) {
	if r.k > 0 || r.sum > 0 {
		dt := t.Sub(r.last)
		if dt < 0 {
			dt, t = 0, r.last
		}
		r.sum = r.sum*m.decay(dt, r.refs) + 1
	} else {
		r.sum = 1
	}
	r.k++
	r.refs = max(r.refs, 1)
	r.last = t
	if len(r.history) == Window {
		r.history = r.history[1:]
	}
	r.history = append(r.history, t)
}

func (r *refStats) onRef(m *Model, t time.Time, w float64) {
	r.refs = max(r.refs, 1)
	if r.k > 0 || r.sum > 0 {
		dt := t.Sub(r.last)
		if dt < 0 {
			dt, t = 0, r.last
		}
		r.sum = r.sum*m.decay(dt, r.refs) + w
	} else {
		r.sum = w
	}
	r.last = t
}

func (r *refStats) addRef(m *Model) {
	r.refs++
	if r.k > 0 {
		r.sum = r.windowed(m, r.last)
	}
}

func (r *refStats) score(m *Model, t time.Time) float64 {
	if r.k == 0 && r.sum == 0 {
		return 0
	}
	return r.sum * m.decay(max(0, t.Sub(r.last)), r.refs)
}

func (r *refStats) windowed(m *Model, t time.Time) float64 {
	var s float64
	for _, ti := range r.history {
		s += m.decay(max(0, t.Sub(ti)), r.refs)
	}
	return s
}

// TestStampsMatchTimeHistory: random sequences of up to 100 accesses,
// anticipatory references and added links, over times that carry a
// monotonic reading and over times that do not, leave Stats where the
// []time.Time window leaves its oracle, and Score and Windowed answer
// the same bits at times before and after the last access.
func TestStampsMatchTimeHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	long := 0
	for trial := 0; trial < 400; trial++ {
		m := NewModel(Params{P: 2 + float64(rng.Intn(6)), Unit: time.Duration(1+rng.Intn(200)) * time.Millisecond})
		base := time.Unix(1700000000+int64(trial), int64(rng.Intn(1e9)))
		if trial%2 == 0 {
			base = time.Now() // a monotonic reading rides along every Add
		}
		var st Stats
		var ref refStats
		at, accesses, n := base, 0, 1+rng.Intn(100)
		for accesses < n {
			// Mostly forward, now and then back: an out-of-order access.
			at = at.Add(time.Duration(rng.Int63n(300e6) - 20e6))
			switch op := rng.Intn(10); {
			case op < 7:
				m.OnAccess(&st, at)
				ref.onAccess(m, at)
				accesses++
			case op < 9:
				w := []float64{0.5, 0.25, 1}[rng.Intn(3)]
				m.OnRef(&st, at, w)
				ref.onRef(m, at, w)
			default:
				m.AddRef(&st)
				ref.addRef(m)
			}
			if st.K != ref.k || st.Refs != ref.refs || !st.Last.Equal(ref.last) ||
				math.Float64bits(st.Sum) != math.Float64bits(ref.sum) || st.N != len(ref.history) {
				t.Fatalf("trial %d, access %d: stats K %d refs %d last %v sum %v with %d times, oracle K %d refs %d last %v sum %v with %d",
					trial, accesses, st.K, st.Refs, st.Last, st.Sum, st.N, ref.k, ref.refs, ref.last, ref.sum, len(ref.history))
			}
			for _, d := range []time.Duration{-time.Second, 0, time.Duration(rng.Int63n(5e9))} {
				eval := at.Add(d)
				if got, want := m.Score(&st, eval), ref.score(m, eval); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d, access %d: Score %v, oracle %v", trial, accesses, got, want)
				}
				if got, want := m.Windowed(&st, eval), ref.windowed(m, eval); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d, access %d: Windowed %v, oracle %v", trial, accesses, got, want)
				}
			}
		}
		if accesses > Window {
			long++
		}
	}
	if long == 0 {
		t.Fatal("no sequence outgrew the window")
	}
}
