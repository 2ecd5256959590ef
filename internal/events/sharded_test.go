package events

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hfetch/internal/telemetry"
)

func TestShardedRoutingIsStable(t *testing.T) {
	s := NewSharded(8, 1024, false)
	if s.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", s.NumShards())
	}
	for i := 0; i < 100; i++ {
		file := fmt.Sprintf("f%d", i)
		ev := Event{Op: OpRead, File: file}
		want := ShardOf(ev, 8)
		for j := 0; j < 5; j++ {
			if got := ShardOf(ev, 8); got != want {
				t.Fatalf("ShardOf(%q) unstable: %d then %d", file, want, got)
			}
		}
	}
}

func TestShardedSpreadsFiles(t *testing.T) {
	const shards = 8
	seen := make(map[int]bool)
	for i := 0; i < 256; i++ {
		seen[ShardOf(Event{File: fmt.Sprintf("dir/file-%d.dat", i)}, shards)] = true
	}
	if len(seen) != shards {
		t.Fatalf("256 files hit only %d of %d shards", len(seen), shards)
	}
}

func TestShardedPerFileFIFO(t *testing.T) {
	s := NewSharded(4, 4096, false)
	const files, per = 16, 50
	for i := 0; i < per; i++ {
		for f := 0; f < files; f++ {
			s.Post(Event{Op: OpRead, File: fmt.Sprintf("f%d", f), Offset: int64(i)})
		}
	}
	if got := s.Len(); got != files*per {
		t.Fatalf("Len = %d, want %d", got, files*per)
	}
	// Drain every shard on one goroutine each; per-file offsets must be
	// strictly increasing within a shard.
	var wg sync.WaitGroup
	for i := 0; i < s.NumShards(); i++ {
		wg.Add(1)
		go func(q *Queue) {
			defer wg.Done()
			last := make(map[string]int64)
			buf := make([]Event, 8)
			for {
				n, ok := q.TakeBatch(buf)
				if !ok {
					return
				}
				for _, ev := range buf[:n] {
					if prev, seen := last[ev.File]; seen && ev.Offset <= prev {
						t.Errorf("file %s: offset %d after %d", ev.File, ev.Offset, prev)
					}
					last[ev.File] = ev.Offset
				}
			}
		}(s.Shard(i))
	}
	s.Close()
	wg.Wait()
}

func TestShardedDropPolicy(t *testing.T) {
	s := NewSharded(2, 2, true) // 1 slot per shard
	accepted := 0
	for i := 0; i < 20; i++ {
		if s.Post(Event{Op: OpRead, File: fmt.Sprintf("f%d", i)}) {
			accepted++
		}
	}
	posted, dropped := s.Stats()
	if posted != int64(accepted) {
		t.Fatalf("posted = %d, accepted = %d", posted, accepted)
	}
	if dropped != int64(20-accepted) {
		t.Fatalf("dropped = %d, want %d", dropped, 20-accepted)
	}
	if dropped == 0 {
		t.Fatal("expected overflow drops with 1-slot shards")
	}
}

// metricValue finds the unlabeled series of a family in a snapshot.
func metricValue(t *testing.T, snap telemetry.Snapshot, name string) int64 {
	t.Helper()
	for _, m := range snap.Metrics {
		if m.Name == name && m.Labels == "" {
			return m.Value
		}
	}
	t.Fatalf("metric %s not found in snapshot", name)
	return 0
}

func TestShardedTelemetryAggregates(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.SetTimeSampling(1)
	s := NewSharded(4, 64, false)
	s.SetTelemetry(reg)
	for i := 0; i < 10; i++ {
		s.Post(Event{Op: OpRead, File: fmt.Sprintf("f%d", i)})
	}
	snap := reg.Snapshot()
	if got := metricValue(t, snap, "hfetch_events_posted_total"); got != 10 {
		t.Fatalf("posted counter = %d, want 10", got)
	}
	var depth int64
	for _, m := range snap.Metrics {
		if m.Name == "hfetch_event_shard_depth" {
			depth += m.Value
		}
	}
	if depth != 10 {
		t.Fatalf("shard depth gauges sum to %d, want 10", depth)
	}
	// Drain and confirm queue-wait spans land in the stage histogram.
	var wg sync.WaitGroup
	for i := 0; i < s.NumShards(); i++ {
		wg.Add(1)
		go func(q *Queue) {
			defer wg.Done()
			for {
				if _, ok := take(q); !ok {
					return
				}
			}
		}(s.Shard(i))
	}
	s.Close()
	wg.Wait()
	h := reg.StageHist(telemetry.StageQueueWait)
	if h.Count() == 0 {
		t.Fatal("no queue_wait observations after drain")
	}
}

func TestShardedBackpressureReleases(t *testing.T) {
	s := NewSharded(2, 2, false)
	done := make(chan struct{})
	go func() {
		// Far more posts than capacity; must complete once drained.
		for i := 0; i < 100; i++ {
			s.Post(Event{Op: OpRead, File: "hot", Offset: int64(i)})
		}
		close(done)
	}()
	got := 0
	q := s.Shard(ShardOf(Event{File: "hot"}, 2))
	for got < 100 {
		if _, ok := take(q); !ok {
			break
		}
		got++
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked after drain")
	}
	if got != 100 {
		t.Fatalf("drained %d events, want 100", got)
	}
}
