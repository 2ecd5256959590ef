package monitor

import (
	"sync"
	"sync/atomic"
	"testing"

	"hfetch/internal/events"
)

type countingHandler struct {
	reads atomic.Int64
}

func (c *countingHandler) HandleBatch(evs []events.Event) {
	for _, ev := range evs {
		if ev.Op == events.OpRead {
			c.reads.Add(1)
		}
	}
}

func TestDaemonsConsumeAllEvents(t *testing.T) {
	h := &countingHandler{}
	m := New(Config{Shards: 1, QueueCap: 128}, h)
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
	m := New(Config{Shards: 1, QueueCap: 1024}, h)
	for i := 0; i < 100; i++ {
		m.Post(events.Event{Op: events.OpRead})
	}
	m.Start()
	m.Stop()
	if got := h.reads.Load(); got != 100 {
		t.Fatalf("drained %d, want 100", got)
	}
}

func TestDropPolicyCountsOverflow(t *testing.T) {
	h := &countingHandler{}
	m := New(Config{Shards: 1, QueueCap: 4, Drop: true}, h)
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
	m := New(Config{}, &countingHandler{})
	if m.Shards() != DefaultShards || m.cfg.QueueCap != 1<<16 || m.batch != 2048 {
		t.Fatalf("defaults = %+v over %d rings, batch %d", m.cfg, m.Shards(), m.batch)
	}
	// A daemon's batch is its ring, whole.
	if m := New(Config{Shards: 4, QueueCap: 64}, &countingHandler{}); m.Shards() != 4 || m.batch != 16 {
		t.Fatalf("4 rings over 64 slots = %+v over %d rings, batch %d", m.cfg, m.Shards(), m.batch)
	}
}
