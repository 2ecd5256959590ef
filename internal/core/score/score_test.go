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
