// Package events emulates the system-generated event substrate HFetch
// builds on. The paper intercepts the Linux inotify API at the VFS layer
// and enriches the raw events (open/read/write/close + filename) with the
// read offset, request size and a timestamp. This repository cannot
// intercept real syscalls, so the emulated I/O layer (internal/pfs and
// the client agents) posts the same enriched events through a watch
// registry: events are only delivered for files that currently have a
// watch installed, mirroring inotify_add_watch/inotify_rm_watch.
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
	"sync"
	"time"
)

// Op enumerates event types.
type Op uint8

// Event operations. Capacity events are tier-utilization notifications
// from the hardware monitor's per-tier probes and bypass file watches.
const (
	OpOpen Op = iota
	OpRead
	OpWrite
	OpClose
	OpCapacity
)

var opNames = [...]string{"open", "read", "write", "close", "capacity"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Via identifies the producer of an event: the in-process client agent
// (the default, zero value), the HTTP gateway's request path, or a
// synthetic readahead hint emitted by the gateway's sequential-stream
// detector. Hints are scored like real reads — a detected stream *is*
// the paper's sequencing signal — but carry the tag so consumers and
// tests can tell externally-driven traffic from agent traffic.
type Via uint8

// Event producers.
const (
	ViaAgent Via = iota
	ViaGateway
	ViaHint
)

var viaNames = [...]string{"agent", "gateway", "hint"}

func (v Via) String() string {
	if int(v) < len(viaNames) {
		return viaNames[v]
	}
	return fmt.Sprintf("via(%d)", uint8(v))
}

// Event is one enriched file-system event.
type Event struct {
	Op     Op
	File   string
	Offset int64
	Length int64
	Time   time.Time
	// Via tags the producer: in-process agent (default), the HTTP
	// gateway, or a synthetic stream-detector readahead hint.
	Via Via
	// Tier names the tier that produced the event (capacity events) or
	// served the access, when known.
	Tier string
	// Free is the remaining capacity for OpCapacity events.
	Free int64
	// Trace is the lifecycle trace ID stamped at monitor ingestion
	// (0 = untraced). It rides the event through the auditor into the
	// placement update so a prefetch can be attributed to the access
	// that caused it.
	Trace uint64
	// Origin names the cluster node whose client issued (or will issue)
	// the access; empty means the local node. It gives placement its
	// "where" axis: score updates for a foreign origin are routed to that
	// node's engine so data is prefetched where it will be read.
	Origin string
}

// Registry implements the watch table: files gain a watch when the first
// reader opens them and lose it when the last reader closes them.
// Registry is safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	watches map[string]int
}

// NewRegistry returns an empty watch registry.
func NewRegistry() *Registry {
	return &Registry{watches: make(map[string]int)}
}

// AddWatch installs (or references) a watch on file and reports whether
// this call created it.
func (r *Registry) AddWatch(file string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.watches[file]++
	return r.watches[file] == 1
}

// RemoveWatch dereferences the watch on file and reports whether this
// call removed the last reference.
func (r *Registry) RemoveWatch(file string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.watches[file]
	if !ok {
		return false
	}
	if n <= 1 {
		delete(r.watches, file)
		return true
	}
	r.watches[file] = n - 1
	return false
}

// Watched reports whether file currently has a watch installed.
func (r *Registry) Watched(file string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.watches[file] > 0
}

// Len returns the number of files with installed watches.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.watches)
}

// AddDirWatch installs a watch on a directory prefix: every file whose
// name starts with dir + "/" is considered watched (inotify's directory
// watches). Reports whether this call created the watch.
func (r *Registry) AddDirWatch(dir string) bool {
	return r.AddWatch(dirKey(dir))
}

// RemoveDirWatch dereferences a directory watch.
func (r *Registry) RemoveDirWatch(dir string) bool {
	return r.RemoveWatch(dirKey(dir))
}

// Covered reports whether file is watched directly or through a watched
// parent directory.
func (r *Registry) Covered(file string) bool {
	if r.Watched(file) {
		return true
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := len(file) - 1; i > 0; i-- {
		if file[i] == '/' {
			if r.watches[dirKey(file[:i])] > 0 {
				return true
			}
		}
	}
	return false
}

// dirKey namespaces directory watches away from file watches.
func dirKey(dir string) string { return "\x00dir:" + dir }
