package telemetry

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// ReadStats records read outcomes: hits and read time by serving tier,
// misses, bytes and total read time. It is the one place a read's outcome
// is counted — the agent keeps one per client, the server one per node,
// and the server's hfetch_tier_read_hits_total and hfetch_read_misses_total
// families are views over it. Every field is an atomic: recording takes
// no lock and writes no map.
type ReadStats struct {
	hits, misses        atomic.Int64
	bytesHit, bytesMiss atomic.Int64
	reads, readNanos    atomic.Int64

	// tiers is an append-only list with one entry per tier ever hit (or
	// named at construction); an entry is never removed or renamed, so a
	// hit finds its count with loads alone. blocked is another such list,
	// of nanoseconds.
	tiers, blocked atomic.Pointer[tierCount]
}

type tierCount struct {
	name string
	n    atomic.Int64
	next atomic.Pointer[tierCount]
}

// NewReadStats returns zeroed statistics.
func NewReadStats() *ReadStats { return &ReadStats{} }

// Hit records nbytes served from tier.
//
//hfetch:hotpath
func (s *ReadStats) Hit(tier string, nbytes int64) {
	s.hits.Add(1)
	s.bytesHit.Add(nbytes)
	entry(&s.tiers, tier).n.Add(1)
}

// entry returns name's entry of the list at link, appending one on the
// tier's first use.
func entry(link *atomic.Pointer[tierCount], name string) *tierCount {
	for {
		t := link.Load()
		if t == nil {
			t = &tierCount{name: name}
			if link.CompareAndSwap(nil, t) {
				return t
			}
			continue // another tier was appended first: look at it
		}
		if t.name == name {
			return t
		}
		link = &t.next
	}
}

// TierCounter returns a reader of tier's hit count, valid before the
// tier's first hit: the server registers its per-tier counter views
// with it.
func (s *ReadStats) TierCounter(tier string) func() int64 { return entry(&s.tiers, tier).n.Load }

// Miss records nbytes served from the PFS.
func (s *ReadStats) Miss(nbytes int64) {
	s.misses.Add(1)
	s.bytesMiss.Add(nbytes)
}

// ObserveRead records one read call's latency.
func (s *ReadStats) ObserveRead(d time.Duration) {
	s.reads.Add(1)
	s.readNanos.Add(int64(d))
}

// Blocked charges d, the time one read call blocked its caller, to the
// tier that served it: "pfs" when any segment missed.
//
//hfetch:hotpath
func (s *ReadStats) Blocked(tier string, d time.Duration) {
	entry(&s.blocked, tier).n.Add(int64(d))
}

// Hits returns the total segment-hit count.
func (s *ReadStats) Hits() int64 { return s.hits.Load() }

// Misses returns the total segment-miss count.
func (s *ReadStats) Misses() int64 { return s.misses.Load() }

// HitRatio returns hits/(hits+misses), or 0 when nothing was read.
func (s *ReadStats) HitRatio() float64 { return ratio(s.hits.Load(), s.misses.Load()) }

// TierHits returns the per-tier hit counts.
func (s *ReadStats) TierHits() map[string]int64 { return counts(&s.tiers) }

func counts(head *atomic.Pointer[tierCount]) map[string]int64 {
	out := make(map[string]int64)
	for t := head.Load(); t != nil; t = t.next.Load() {
		out[t.name] = t.n.Load()
	}
	return out
}

// ReadSnapshot is a point-in-time copy of a ReadStats for exporters (the
// HTTP status API, the agent protocol). It is a plain value: gob- and
// json-encodable.
type ReadSnapshot struct {
	Hits      int64
	Misses    int64
	Reads     int64
	BytesHit  int64
	BytesMiss int64
	ReadNanos int64
	TierHits  map[string]int64
	// TierBlocked is read time in nanoseconds by serving tier ("pfs" for a
	// read that missed).
	TierBlocked map[string]int64
}

// Snapshot copies every counter.
func (s *ReadStats) Snapshot() ReadSnapshot {
	return ReadSnapshot{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Reads:       s.reads.Load(),
		BytesHit:    s.bytesHit.Load(),
		BytesMiss:   s.bytesMiss.Load(),
		ReadNanos:   s.readNanos.Load(),
		TierHits:    s.TierHits(),
		TierBlocked: counts(&s.blocked),
	}
}

// String renders a one-line summary.
func (s *ReadStats) String() string { return s.Snapshot().String() }

// String renders a one-line summary.
func (s ReadSnapshot) String() string {
	str := fmt.Sprintf("hits=%d misses=%d ratio=%.1f%%%s", s.Hits, s.Misses,
		ratio(s.Hits, s.Misses)*100, perTier(s.TierHits, false))
	if len(s.TierBlocked) > 0 {
		str += " blocked:" + perTier(s.TierBlocked, true)
	}
	return str
}

// perTier renders " name=value" for every tier of m in name order, each
// value a duration in nanoseconds when dur is set.
func perTier(m map[string]int64, dur bool) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	per := ""
	for _, n := range names {
		var v any = m[n]
		if dur {
			v = time.Duration(m[n])
		}
		per += fmt.Sprintf(" %s=%v", n, v)
	}
	return per
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
