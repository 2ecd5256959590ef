package monitor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfetch/internal/events"
	"hfetch/internal/tiers"
)

type countingHandler struct {
	reads    atomic.Int64
	capacity atomic.Int64
	mu       sync.Mutex
	seen     []events.Event
}

func (c *countingHandler) HandleEvent(ev events.Event) {
	switch ev.Op {
	case events.OpRead:
		c.reads.Add(1)
	case events.OpCapacity:
		c.capacity.Add(1)
	}
	c.mu.Lock()
	c.seen = append(c.seen, ev)
	c.mu.Unlock()
}

func TestDaemonsConsumeAllEvents(t *testing.T) {
	h := &countingHandler{}
	m := New(Config{Shards: 1, QueueCap: 128}, h, nil)
	m.Start()
	const n = 5000
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				m.Post(events.Event{Op: events.OpRead, File: "f", Length: 1})
			}
		}()
	}
	wg.Wait()
	m.Stop()
	if got := h.reads.Load(); got != n {
		t.Fatalf("handled %d events, want %d", got, n)
	}
	if m.Consumed() != n {
		t.Fatalf("Consumed = %d, want %d", m.Consumed(), n)
	}
}

func TestStopDrainsQueue(t *testing.T) {
	h := &countingHandler{}
	m := New(Config{Shards: 1, QueueCap: 1024}, h, nil)
	for i := 0; i < 100; i++ {
		m.Post(events.Event{Op: events.OpRead})
	}
	m.Start()
	m.Stop()
	if got := h.reads.Load(); got != 100 {
		t.Fatalf("drained %d, want 100", got)
	}
}

func TestCapacityProber(t *testing.T) {
	h := &countingHandler{}
	ram := tiers.NewStore("ram", 100, nil)
	hier := tiers.NewHierarchy(ram)
	m := New(Config{Shards: 1, CapacityInterval: 10 * time.Millisecond}, h, hier)
	m.Start()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && h.capacity.Load() < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	m.Stop()
	if h.capacity.Load() < 2 {
		t.Fatalf("capacity events = %d, want >= 2", h.capacity.Load())
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ev := range h.seen {
		if ev.Op == events.OpCapacity {
			if ev.Tier != "ram" || ev.Free != 100 {
				t.Fatalf("capacity event = %+v", ev)
			}
			return
		}
	}
}

func TestDropPolicyCountsOverflow(t *testing.T) {
	h := &countingHandler{}
	m := New(Config{Shards: 1, QueueCap: 4, Drop: true}, h, nil)
	// Not started: queue fills, then drops.
	for i := 0; i < 10; i++ {
		m.Post(events.Event{Op: events.OpRead})
	}
	_, dropped := m.QueueStats()
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	m.Start()
	m.Stop()
	if h.reads.Load() != 4 {
		t.Fatalf("handled = %d, want 4", h.reads.Load())
	}
}

func TestDefaults(t *testing.T) {
	m := New(Config{}, &countingHandler{}, nil)
	if m.Shards() != DefaultShards || m.cfg.QueueCap != 1<<16 || m.cfg.Batch != 2048 {
		t.Fatalf("defaults = %+v over %d rings", m.cfg, m.Shards())
	}
	// A daemon's batch is its ring, whole.
	if m := New(Config{Shards: 4, QueueCap: 64}, &countingHandler{}, nil); m.Shards() != 4 || m.cfg.Batch != 16 {
		t.Fatalf("4 rings over 64 slots = %+v over %d rings", m.cfg, m.Shards())
	}
}
