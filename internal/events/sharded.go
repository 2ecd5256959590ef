package events

import (
	"strconv"

	"hfetch/internal/telemetry"
)

// ShardedQueue partitions the monitor's event stream into independent
// rings hashed by file name, so concurrent producers (one per
// application "rank") and the daemon pool never serialize on a single
// mutex. Because a file always maps to the same shard and each shard is
// drained FIFO by a single worker, per-file event order — which segment
// scoring and sequencing-link learning require — is preserved without
// any cross-shard coordination.
//
// Capacity events carry no file name; they hash by tier name so each
// tier's capacity stream is also ordered.
//
// Overflow policy is per the underlying rings: blocking backpressure by
// default, or counted drops (inotify IN_Q_OVERFLOW) when drop is set.
type ShardedQueue struct {
	shards []*Queue
}

// NewSharded creates a queue with the given shard count (minimum 1) and
// total capacity split evenly across shards (minimum 1 per shard). If
// drop is true, Post discards events when the target shard is full.
func NewSharded(shards, capacity int, drop bool) *ShardedQueue {
	if shards < 1 {
		shards = 1
	}
	per := capacity / shards
	if per < 1 {
		per = 1
	}
	s := &ShardedQueue{shards: make([]*Queue, shards)}
	for i := range s.shards {
		s.shards[i] = NewQueue(per, drop)
	}
	return s
}

// ShardOf returns the shard index an event's ordering key maps to under
// n shards. Exported so tests and the auditor's stripe accounting can
// reproduce the routing.
func ShardOf(ev Event, n int) int {
	key := ev.File
	if key == "" {
		key = ev.Tier
	}
	return int(HashOf(key) % uint64(n))
}

// HashOf is the routing hash (word-at-a-time FNV-1a with a final
// avalanche); the auditor stripes its epoch table with it too, so a
// shard worker's state accesses cluster on a stable stripe subset.
//
// It sits on the Post hot path — every produced event pays one call —
// so it folds eight bytes per multiply instead of classic FNV's one.
// The FNV multiply only propagates bits upward, which per-byte mixing
// hides but word-wise mixing does not: without the fmix finalizer the
// trailing bytes of each word could never reach the low bits that
// `% shards` selects, and names differing only in a trailing digit
// would all land on one shard.
func HashOf(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		h = (h ^ w) * prime64
	}
	for ; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// NumShards returns the shard count.
func (s *ShardedQueue) NumShards() int { return len(s.shards) }

// Shard returns shard i's ring, for the worker that owns it.
func (s *ShardedQueue) Shard(i int) *Queue { return s.shards[i] }

// Post enqueues ev on its file's shard. It reports false when the event
// was dropped (drop policy and shard full) or the queue is closed.
func (s *ShardedQueue) Post(ev Event) bool {
	return s.shards[ShardOf(ev, len(s.shards))].postRef(&ev)
}

// Close closes every shard; pending events can still be drained.
func (s *ShardedQueue) Close() {
	for _, q := range s.shards {
		q.Close()
	}
}

// Len returns the total number of queued events across shards.
func (s *ShardedQueue) Len() int {
	n := 0
	for _, q := range s.shards {
		n += q.Len()
	}
	return n
}

// Stats returns the cumulative posted and dropped counts across shards.
func (s *ShardedQueue) Stats() (posted, dropped int64) {
	for _, q := range s.shards {
		p, d := q.Stats()
		posted += p
		dropped += d
	}
	return posted, dropped
}

// SetTelemetry attaches a registry: the queue exports the aggregate
// depth and posted/dropped totals, a per-shard depth gauge, and times
// sampled events' queue wait (see Queue.AttachTelemetry). Call before
// traffic; nil is ignored.
func (s *ShardedQueue) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for i, q := range s.shards {
		q.AttachTelemetry(reg)
		q := q
		reg.GaugeFunc("hfetch_event_shard_depth", "events queued in the shard",
			func() int64 { return int64(q.Len()) }, "shard", strconv.Itoa(i))
	}
	reg.GaugeFunc("hfetch_event_queue_depth", "events currently queued", func() int64 { return int64(s.Len()) })
	reg.CounterFunc("hfetch_events_posted_total", "events accepted into the queue", func() int64 {
		p, _ := s.Stats()
		return p
	})
	reg.CounterFunc("hfetch_events_dropped_total", "events dropped on overflow (IN_Q_OVERFLOW)", func() int64 {
		_, d := s.Stats()
		return d
	})
}
