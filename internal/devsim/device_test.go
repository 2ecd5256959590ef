package devsim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCostLatencyOnly(t *testing.T) {
	d := New(Profile{Name: "x", Latency: time.Millisecond}, 1)
	if got := d.Cost(0); got != time.Millisecond {
		t.Fatalf("Cost(0) = %v, want 1ms", got)
	}
	// No bandwidth term configured: size must not change the cost.
	if got := d.Cost(1 << 20); got != time.Millisecond {
		t.Fatalf("Cost(1MB) = %v, want 1ms", got)
	}
}

func TestCostBandwidthTerm(t *testing.T) {
	d := New(Profile{Name: "x", Latency: 0, BytesPerSec: 1e6}, 1)
	if got := d.Cost(1e6); got != time.Second {
		t.Fatalf("Cost(1e6) = %v, want 1s", got)
	}
	if got := d.Cost(500e3); got != 500*time.Millisecond {
		t.Fatalf("Cost(500e3) = %v, want 500ms", got)
	}
}

func TestCostScale(t *testing.T) {
	d := New(Profile{Name: "x", Latency: time.Second}, 0.001)
	if got := d.Cost(0); got != time.Millisecond {
		t.Fatalf("scaled Cost(0) = %v, want 1ms", got)
	}
}

func TestCostDefaultsIgnoreNonPositiveScale(t *testing.T) {
	d := New(Profile{Name: "x", Latency: time.Millisecond}, -3)
	if got := d.Cost(0); got != time.Millisecond {
		t.Fatalf("Cost with invalid scale = %v, want 1ms", got)
	}
}

func TestAccessBlocksForCost(t *testing.T) {
	d := New(Profile{Name: "x", Latency: 20 * time.Millisecond}, 1)
	start := time.Now()
	d.Access(0)
	if el := time.Since(start); el < 18*time.Millisecond || el > 25*time.Millisecond {
		t.Fatalf("Access returned after %v, want ~20ms", el)
	}
}

func TestAccessSerializesOnOneChannel(t *testing.T) {
	d := New(Profile{Name: "x", Latency: 10 * time.Millisecond, Channels: 1}, 1)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Access(0)
		}()
	}
	wg.Wait()
	if el := time.Since(start); el < 35*time.Millisecond || el > 50*time.Millisecond {
		t.Fatalf("4 serialized ops finished in %v, want ~40ms", el)
	}
}

func TestAccessParallelChannels(t *testing.T) {
	d := New(Profile{Name: "x", Latency: 20 * time.Millisecond, Channels: 4}, 1)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Access(0)
		}()
	}
	wg.Wait()
	if el := time.Since(start); el < 18*time.Millisecond || el > 30*time.Millisecond {
		t.Fatalf("4 parallel ops took %v, want ~20ms, not the 80ms of serial time", el)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := New(Profile{Name: "x", Latency: time.Microsecond, BytesPerSec: 1e9}, 1)
	for i := 0; i < 10; i++ {
		d.Access(100)
	}
	ops, bytes, busy := d.Stats()
	if ops != 10 || bytes != 1000 {
		t.Fatalf("Stats = %d ops %d bytes, want 10 ops 1000 bytes", ops, bytes)
	}
	if busy <= 0 {
		t.Fatalf("busy = %v, want > 0", busy)
	}
	d.ResetStats()
	ops, bytes, busy = d.Stats()
	if ops != 0 || bytes != 0 || busy != 0 {
		t.Fatalf("after reset Stats = %d %d %v, want zeros", ops, bytes, busy)
	}
}

func TestCostMonotonicInSize(t *testing.T) {
	d := New(Profile{Name: "x", Latency: time.Microsecond, BytesPerSec: 1e8}, 1)
	f := func(a, b uint32) bool {
		sa, sb := int64(a%1e6), int64(b%1e6)
		if sa > sb {
			sa, sb = sb, sa
		}
		return d.Cost(sa) <= d.Cost(sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultChannels(t *testing.T) {
	d := New(Profile{Name: "x"}, 1)
	if d.Profile().Channels != 1 {
		t.Fatalf("Channels = %d, want 1 default", d.Profile().Channels)
	}
}

func TestStringContainsName(t *testing.T) {
	d := New(Profile{Name: "mydev", Latency: time.Millisecond, BytesPerSec: 1e6}, 1)
	if s := d.String(); s == "" || !contains(s, "mydev") {
		t.Fatalf("String() = %q, want it to mention device name", s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
