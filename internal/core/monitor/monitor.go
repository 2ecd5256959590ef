// Package monitor implements HFetch's hardware monitor: it discovers the
// configured tiers, hosts the in-memory event queue every tier (and the
// client I/O layer) pushes into, and serves that queue with a pool of
// daemon threads that forward events to the file segment auditor. It
// also probes each tier's remaining capacity periodically and reports it
// as OpCapacity events — the second event kind the paper describes.
//
// The queue is an events.ShardedQueue: events hash by file onto
// Config.Shards independent rings, each drained by one daemon, so events
// of a file are handled in exactly the order they were posted — the
// property segment sequencing and score folding rely on — while distinct
// files proceed in parallel with no shared lock. The paper's daemon pool
// size is the ring count; Shards: 1 is its literal single event queue,
// one ring and one daemon handling everything in posting order.
package monitor

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/devsim"
	"hfetch/internal/events"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// Handler consumes monitored events (implemented by the auditor).
type Handler interface {
	HandleEvent(events.Event)
}

// BatchHandler is optionally implemented by handlers that want one call
// per drained batch instead of one per event. The auditor implements it
// to aggregate score updates and hand the placement engine a single
// batched delivery per drain cycle.
type BatchHandler interface {
	HandleBatch([]events.Event)
}

// DefaultShards is the ring (and daemon) count of a monitor whose
// Config.Shards is not set, and the value the daemon ships.
const DefaultShards = 8

// Config configures a Monitor.
type Config struct {
	// Shards is the number of rings events hash onto by file, each with
	// its own daemon (default DefaultShards).
	Shards int
	// QueueCap bounds the event queue (default 64k events, split evenly
	// across the rings).
	QueueCap int
	// Drop selects the overflow policy: true drops events when the queue
	// is full (inotify IN_Q_OVERFLOW), false applies backpressure.
	Drop bool
	// CapacityInterval is how often tier capacities are probed;
	// 0 disables probing.
	CapacityInterval time.Duration
	// Batch is the daemon batch size when draining a ring. It defaults to
	// the ring's full capacity (capped at 2048): a ring has a single
	// drainer and a whole-ring drain costs one lock acquisition however
	// deep the ring is.
	Batch int
	// Telemetry, when non-nil, exports queue depth/wait and consumption
	// counters; nil disables instrumentation at ~zero cost.
	Telemetry *telemetry.Registry
}

// Monitor is safe for concurrent use.
type Monitor struct {
	cfg     Config
	queue   *events.ShardedQueue
	handler Handler
	batch   BatchHandler // handler's batch fast path, when implemented
	hier    *tiers.Hierarchy

	wg   sync.WaitGroup
	stop chan struct{}
	once sync.Once

	consumed atomic.Int64
}

// New creates a monitor feeding handler; hier may be nil (no capacity
// probes).
func New(cfg Config, handler Handler, hier *tiers.Hierarchy) *Monitor {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1 << 16
	}
	if cfg.Batch <= 0 {
		cfg.Batch = min(max(cfg.QueueCap/cfg.Shards, 1), 2048)
	}
	m := &Monitor{
		cfg:     cfg,
		queue:   events.NewSharded(cfg.Shards, cfg.QueueCap, cfg.Drop),
		handler: handler,
		hier:    hier,
		stop:    make(chan struct{}),
	}
	if bh, ok := handler.(BatchHandler); ok {
		m.batch = bh
	}
	if cfg.Telemetry != nil {
		m.queue.SetTelemetry(cfg.Telemetry)
		cfg.Telemetry.CounterFunc("hfetch_events_consumed_total",
			"events handled by the daemon pool", m.consumed.Load)
	}
	return m
}

// Shards returns the number of event rings.
func (m *Monitor) Shards() int { return m.queue.NumShards() }

// Post pushes one event into the queue. Read events are stamped with a
// lifecycle trace ID at this boundary — the monitor is the ingestion
// point the paper's inotify shim corresponds to — so the trace covers
// everything downstream.
//
//hfetch:hotpath
func (m *Monitor) Post(ev events.Event) bool {
	if ev.Op == events.OpRead && ev.Trace == 0 {
		if lc := m.cfg.Telemetry.Lifecycle(); lc != nil {
			ev.Trace = lc.OnEvent(ev.File, ev.Offset, ev.Time)
		}
	}
	return m.queue.Post(ev)
}

// Backlog returns the number of queued, not-yet-drained events across
// all shards.
func (m *Monitor) Backlog() int { return m.queue.Len() }

// Quiescent reports whether every event accepted so far has been fully
// handled: audited and its score update delivered to the engine, not
// merely popped off the ring. Backlog can read zero while a daemon
// still holds a popped batch; the consumed counter only advances after
// the handler returns, which closes that window. Posted is read before
// consumed so a true result covers at least the events posted up to
// the call.
func (m *Monitor) Quiescent() bool {
	posted, _ := m.QueueStats()
	return m.consumed.Load() >= posted
}

// quiescePoll is WaitQuiescent's polling grain: devsim.Sleep's, because
// time.Sleep would take a millisecond on an idle host and the wait sits
// between the phases of every experiment and at every last close.
const quiescePoll = 200 * time.Microsecond

// WaitQuiescent waits until Quiescent holds or timeout has passed and
// reports which. An expiry is logged, once, with the counts that did not
// meet: the caller goes on without the events still in the pipeline.
func (m *Monitor) WaitQuiescent(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !m.Quiescent() {
		if !time.Now().Before(deadline) {
			posted, _ := m.QueueStats()
			slog.Warn("event pipeline did not quiesce", "component", "monitor",
				"waited", timeout, "posted", posted, "consumed", m.consumed.Load())
			return false
		}
		devsim.Sleep(quiescePoll)
	}
	return true
}

// QueueStats returns the cumulative posted and dropped counts.
func (m *Monitor) QueueStats() (posted, dropped int64) { return m.queue.Stats() }

// Start launches the daemon pool, one daemon per ring (and the capacity
// prober when configured).
func (m *Monitor) Start() {
	for i := 0; i < m.queue.NumShards(); i++ {
		m.wg.Add(1)
		//lint:allow goleak daemon joins via the queue, not a signal field: Stop closes the ring and TakeBatch returns ok=false once drained
		go m.daemon(m.queue.Shard(i))
	}
	if m.cfg.CapacityInterval > 0 && m.hier != nil {
		m.wg.Add(1)
		go m.prober()
	}
}

// Stop closes the queue, waits for the daemons to drain it, and returns.
func (m *Monitor) Stop() {
	m.once.Do(func() { close(m.stop) })
	m.queue.Close()
	m.wg.Wait()
}

// Consumed returns the number of events handled so far.
func (m *Monitor) Consumed() int64 { return m.consumed.Load() }

// daemon drains its ring until it is closed and empty.
//
//hfetch:hotpath
func (m *Monitor) daemon(q *events.Queue) {
	defer m.wg.Done()
	buf := make([]events.Event, m.cfg.Batch)
	for {
		n, ok := q.TakeBatch(buf)
		if !ok {
			return
		}
		if m.batch != nil {
			m.batch.HandleBatch(buf[:n])
		} else {
			for i := 0; i < n; i++ {
				m.handler.HandleEvent(buf[i])
			}
		}
		m.consumed.Add(int64(n))
	}
}

func (m *Monitor) prober() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.CapacityInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			now := time.Now()
			for _, s := range m.hier.Stores() {
				m.Post(events.Event{
					Op: events.OpCapacity, Tier: s.Name(), Free: s.Free(), Time: now,
				})
			}
		}
	}
}
