package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReadStatsHitMissAccounting(t *testing.T) {
	s := NewReadStats()
	s.Hit("ram", 100)
	s.Hit("nvme", 200)
	s.Hit("ram", 50)
	s.Miss(1000)
	if s.Hits() != 3 || s.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", s.Hits(), s.Misses())
	}
	if got := s.HitRatio(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("ratio = %v, want 0.75", got)
	}
	th := s.TierHits()
	if th["ram"] != 2 || th["nvme"] != 1 {
		t.Fatalf("tier hits = %v", th)
	}
	snap := s.Snapshot()
	if snap.BytesHit != 350 || snap.BytesMiss != 1000 {
		t.Fatalf("bytes = %d/%d", snap.BytesHit, snap.BytesMiss)
	}
}

func TestReadStatsHitRatioEmpty(t *testing.T) {
	s := NewReadStats()
	if s.HitRatio() != 0 {
		t.Fatal("empty ratio must be 0")
	}
}

func TestReadStatsObserveReadAndString(t *testing.T) {
	s := NewReadStats()
	s.ObserveRead(10 * time.Millisecond)
	s.ObserveRead(20 * time.Millisecond)
	if snap := s.Snapshot(); snap.Reads != 2 || snap.ReadNanos != int64(30*time.Millisecond) {
		t.Fatalf("reads=%d total=%dns", snap.Reads, snap.ReadNanos)
	}
	s.Hit("ram", 1)
	str := s.String()
	if !strings.Contains(str, "ram=1") || !strings.Contains(str, "hits=1") {
		t.Fatalf("String = %q", str)
	}
}

func TestReadStatsTierHitsReturnsCopy(t *testing.T) {
	s := NewReadStats()
	s.Hit("ram", 1)
	th := s.TierHits()
	th["ram"] = 999
	if s.TierHits()["ram"] != 1 {
		t.Fatal("TierHits must return a copy")
	}
}

// TestReadStatsConcurrentCounters races first hits on several tiers, so
// appends to the tier list contend; run with -race. Every tier must get
// exactly one entry holding all of its hits.
func TestReadStatsConcurrentCounters(t *testing.T) {
	s := NewReadStats()
	tiers := []string{"ram", "nvme", "bb"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 999; i++ {
				s.Hit(tiers[(w+i)%len(tiers)], 1)
				s.Miss(1)
			}
		}(w)
	}
	wg.Wait()
	if s.Hits() != 8*999 || s.Misses() != 8*999 {
		t.Fatalf("concurrent counts = %d/%d", s.Hits(), s.Misses())
	}
	th := s.TierHits()
	for _, tier := range tiers {
		if th[tier] != 8*999/3 {
			t.Fatalf("tier hits = %v, want %d each", th, 8*999/3)
		}
	}
	if len(th) != len(tiers) {
		t.Fatalf("tier hits = %v", th)
	}
}

// TestReadStatsManyTiers: however many tiers a hierarchy has, each keeps
// its own count, and a reader taken before a tier's first hit sees it.
func TestReadStatsManyTiers(t *testing.T) {
	s := NewReadStats()
	late := s.TierCounter("t20")
	if late() != 0 {
		t.Fatal("unhit tier must read 0")
	}
	for i := 0; i < 32; i++ {
		for j := 0; j <= i; j++ {
			s.Hit(fmt.Sprintf("t%d", i), 1)
		}
	}
	th := s.TierHits()
	if len(th) != 32 || s.Hits() != 32*33/2 {
		t.Fatalf("hits = %d, tier hits = %v", s.Hits(), th)
	}
	for i := 0; i < 32; i++ {
		if n := th[fmt.Sprintf("t%d", i)]; n != int64(i+1) {
			t.Fatalf("t%d = %d, want %d", i, n, i+1)
		}
	}
	if late() != 21 {
		t.Fatalf("TierCounter(t20) = %d, want 21", late())
	}
}

func TestReadStatsHitDoesNotAllocate(t *testing.T) {
	s := NewReadStats()
	s.Hit("ram", 1)
	if a := testing.AllocsPerRun(100, func() { s.Hit("ram", 1) }); a != 0 {
		t.Fatalf("Hit allocates %.1f per call", a)
	}
}
