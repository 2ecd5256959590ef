// Package events emulates the system-generated event substrate HFetch
// builds on. The paper intercepts the Linux inotify API at the VFS layer
// and enriches the raw events (op + filename) with the read offset,
// request size and a timestamp. This repository cannot intercept real
// syscalls, so the client agents and the gateway post the same enriched
// events to their node's server, which delivers them only for files
// inside a prefetching epoch (the auditor's epoch table is the watch
// table), mirroring inotify_add_watch/inotify_rm_watch. Two ops reach the
// auditor: a read, which it scores, and a write, which invalidates the
// file's prefetched data. Opens and closes arrive as epochs (the agent
// manager's StartEpoch/EndEpoch), not as events.
//
// Delivered events land in the monitor's queue, a ShardedQueue: the
// stream is partitioned into per-file-hashed rings, each a Queue (a
// bounded MPMC ring) drained by one worker, so producers do not serialize
// on one mutex and per-file FIFO order survives a multi-worker drain.
// One shard is the paper's literal single "event queue". The overflow
// policy (blocking backpressure or counted drops, mirroring inotify's
// IN_Q_OVERFLOW) and the queue-wait telemetry span are the ring's.
package events

import (
	"fmt"
	"time"
)

// Op enumerates event types.
type Op uint8

// Event operations. The zero Op is none of them, so an Event whose Op
// was never set is neither scored nor an invalidation.
const (
	OpRead Op = iota + 1
	OpWrite
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Event is one enriched file-system event.
type Event struct {
	Op     Op
	File   string
	Offset int64
	Length int64
	Time   time.Time
	// Think is the reader's compute time between its previous request on
	// the same handle returning and this one starting; 0 means unknown.
	Think time.Duration
	// Trace is the lifecycle trace ID stamped at monitor ingestion
	// (0 = untraced). It rides the event through the auditor into the
	// placement update so a prefetch can be attributed to the access
	// that caused it.
	Trace uint64
}
