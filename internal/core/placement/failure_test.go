package placement

import (
	"errors"
	"sync/atomic"
	"testing"

	"hfetch/internal/core/seg"
	"hfetch/internal/tiers"
)

// flakyMover wraps a Mover and fails operations on demand.
type flakyMover struct {
	inner        Mover
	failFetches  atomic.Int64 // fail this many Fetch calls
	failTransfer atomic.Int64
}

func (f *flakyMover) Fetch(id seg.ID, size int64, dst *tiers.Store) error {
	if f.failFetches.Add(-1) >= 0 {
		return errors.New("injected fetch failure")
	}
	return f.inner.Fetch(id, size, dst)
}

func (f *flakyMover) Transfer(id seg.ID, src, dst *tiers.Store) error {
	if f.failTransfer.Add(-1) >= 0 {
		return errors.New("injected transfer failure")
	}
	return f.inner.Transfer(id, src, dst)
}

func (f *flakyMover) Evict(id seg.ID, src *tiers.Store) error {
	return f.inner.Evict(id, src)
}

// flakyRig builds a rig whose mover is wrapped for fault injection.
func flakyRig(t *testing.T, cfg Config, capacities ...int64) (*rig, *flakyMover) {
	t.Helper()
	var fm *flakyMover
	r := newRigWrapped(t, cfg, func(m Mover) Mover {
		fm = &flakyMover{inner: m}
		return fm
	}, capacities...)
	return r, fm
}

func TestFailedFetchReconcilesAndRetries(t *testing.T) {
	r, fm := flakyRig(t, Config{}, 1000)
	fm.failFetches.Store(1)
	deliver(r.eng, up(0, 5))
	r.eng.Flush()
	if r.hier.Locate(seg.ID{File: "f", Index: 0}) != -1 {
		t.Fatal("failed fetch must leave nothing resident")
	}
	if st := r.eng.Counters(); st.FailedMoves != 1 {
		t.Fatalf("failed moves = %d, want 1", st.FailedMoves)
	}
	if _, _, ok := r.aud.Mapping(seg.ID{File: "f", Index: 0}); ok {
		t.Fatal("failed fetch must not leave a mapping")
	}
	// A later update retries successfully.
	deliver(r.eng, up(0, 6))
	r.eng.Flush()
	if r.hier.Locate(seg.ID{File: "f", Index: 0}) != 0 {
		t.Fatal("retry after failure must place the segment")
	}
	if _, ok := r.hier.ExclusiveOK(); !ok {
		t.Fatal("exclusivity violated after failure/retry")
	}
}

func TestFailedTransferKeepsSingleCopy(t *testing.T) {
	r, fm := flakyRig(t, Config{}, 100, 1000)
	deliver(r.eng, up(0, 5))
	r.eng.Flush()
	if r.hier.Locate(seg.ID{File: "f", Index: 0}) != 0 {
		t.Fatal("seed placement failed")
	}
	// A hotter segment displaces it, but the demotion transfer fails.
	fm.failTransfer.Store(1)
	deliver(r.eng, up(1, 9))
	r.eng.Flush()
	// Whatever happened, the invariants hold: at most one copy anywhere,
	// model agrees with stores, mapping agrees with residency.
	if id, ok := r.hier.ExclusiveOK(); !ok {
		t.Fatalf("duplicate copy of %v after failed transfer", id)
	}
	for _, idx := range []int64{0, 1} {
		id := seg.ID{File: "f", Index: idx}
		actual := r.hier.Locate(id)
		node, tier, ok := r.aud.Mapping(id)
		if actual == -1 && ok {
			t.Fatalf("segment %v: mapping %s|%s but not resident", id, node, tier)
		}
		if actual >= 0 && ok && r.hier.Tier(actual).Name() != tier {
			t.Fatalf("segment %v: mapping says %s, store says %s", id, tier, r.hier.Tier(actual).Name())
		}
	}
	// Churn afterwards stays consistent.
	for i := int64(0); i < 10; i++ {
		deliver(r.eng, up(i%4, float64(10-i)))
		r.eng.Flush()
		if _, ok := r.hier.ExclusiveOK(); !ok {
			t.Fatal("exclusivity violated during post-failure churn")
		}
	}
}

func TestRepeatedFailuresNeverCorruptAccounting(t *testing.T) {
	r, fm := flakyRig(t, Config{}, 300, 300)
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
	// Model usage must equal store usage on both tiers.
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
