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
	m := NewModel(Params{Window: 4})
	var st Stats
	for i := 0; i < 10; i++ {
		m.OnAccess(&st, t0.Add(time.Duration(i)*time.Millisecond))
	}
	if len(st.History) != 4 {
		t.Fatalf("history length = %d, want 4", len(st.History))
	}
	if st.K != 10 {
		t.Fatalf("K = %d, want 10", st.K)
	}
}

func TestParamsNormalization(t *testing.T) {
	m := NewModel(Params{P: 0.5, Unit: -1, Window: -3})
	if m.P() != 2 || m.Window() != 32 {
		t.Fatalf("normalized P=%v Window=%d, want 2 and 32", m.P(), m.Window())
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
		m := NewModel(Params{P: 2 + float64(rng.Intn(6)), Unit: 50 * time.Millisecond, Window: 64})
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

// TestHistoryShiftsInPlace: a full history drops its oldest stamp by
// moving the rest down, so a record's history keeps one backing array
// for life; the contents are the last Window accesses, oldest first.
func TestHistoryShiftsInPlace(t *testing.T) {
	m := NewModel(Params{P: 2, Unit: time.Second, Window: 8})
	var st Stats
	var all []time.Time
	var base *time.Time
	for i := 0; i < 50; i++ {
		at := t0.Add(time.Duration(i) * time.Millisecond)
		m.OnAccess(&st, at)
		all = append(all, at)
		want := all[max(0, len(all)-8):]
		if len(st.History) != len(want) {
			t.Fatalf("access %d: history holds %d stamps, want %d", i, len(st.History), len(want))
		}
		for j := range want {
			if !st.History[j].Equal(want[j]) {
				t.Fatalf("access %d: history[%d] = %v, want %v", i, j, st.History[j], want[j])
			}
		}
		if len(st.History) == 8 {
			if base == nil {
				base = &st.History[0]
			} else if base != &st.History[0] {
				t.Fatalf("access %d: a full history moved to a new array", i)
			}
		}
	}
	// A history longer than the window (a record stored under a larger
	// one) is cut to it the same way.
	long := Stats{History: append([]time.Time(nil), all[:20]...), K: 20, Refs: 1, Sum: 1, Last: all[19]}
	m.OnAccess(&long, all[20])
	if len(long.History) != 8 || !long.History[0].Equal(all[13]) || !long.History[7].Equal(all[20]) {
		t.Fatalf("an over-long history became %v", long.History)
	}
}

// TestHistoryGrowsOnce: the first access costs one timestamp, the second
// the whole window, and no later access allocates — a history restored at
// its exact length (a decoded record) grows the same single time.
func TestHistoryGrowsOnce(t *testing.T) {
	m := NewModel(Params{P: 2, Unit: time.Second, Window: 32})
	var st Stats
	m.OnAccess(&st, t0)
	if cap(st.History) != 1 {
		t.Fatalf("a segment read once holds room for %d stamps, want 1", cap(st.History))
	}
	i := 1
	next := func() {
		m.OnAccess(&st, t0.Add(time.Duration(i)*time.Millisecond))
		i++
	}
	next()
	if len(st.History) != 2 || cap(st.History) != 32 || !st.History[0].Equal(t0) {
		t.Fatalf("second access: len %d cap %d first %v, want 2, 32, %v", len(st.History), cap(st.History), st.History[0], t0)
	}
	if got := testing.AllocsPerRun(100, next); got != 0 {
		t.Fatalf("an access after the second allocates %v times, want 0", got)
	}
	restored := Stats{History: append([]time.Time(nil), st.History[:5]...), K: 5, Refs: 1, Sum: 1, Last: st.History[4]}
	m.OnAccess(&restored, st.History[5])
	if len(restored.History) != 6 || cap(restored.History) != 32 {
		t.Fatalf("a restored history of 5 became len %d cap %d, want 6, 32", len(restored.History), cap(restored.History))
	}
}
