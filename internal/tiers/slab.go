package tiers

import (
	"sync"
	"sync/atomic"

	"hfetch/internal/invariant"
)

// The slab allocator hands out segment-sized []byte buffers from
// size-classed free lists so the data-movement and read hot paths stop
// allocating (and the GC stops scanning) one fresh payload per fetch.
// Classes are powers of two from slabMinClass to slabMaxClass; a request
// is rounded up to its class and served from that class's sync.Pool. A
// request larger than the largest class falls back to a plain make and
// is counted as a miss — the buffer is still usable, it just never
// returns to a pool.
//
// SlabPut accepts any buffer: only buffers whose capacity is exactly a
// class size are pooled (that is every buffer SlabGet handed out), the
// rest are dropped for the GC. This makes provenance tracking
// unnecessary — callers free what they own and the slab sorts it out.
//
// Under -tags hfetch_invariants every freed buffer is poisoned with
// 0xDB first, so a reader holding a payload past its release observes
// garbage instead of silently racing a recycled buffer.
const (
	slabMinShift = 12 // 4 KiB
	slabMaxShift = 23 // 8 MiB
	slabClasses  = slabMaxShift - slabMinShift + 1
)

// SlabMaxBuf is the largest pooled buffer size; anything bigger is a
// plain allocation the slab never sees again.
const SlabMaxBuf = 1 << slabMaxShift

// slabPoison is the byte pattern written over freed buffers when
// invariants are compiled in ("dead buffer").
const slabPoison = 0xDB

type slab struct {
	pools [slabClasses]sync.Pool

	gets    atomic.Int64 // all SlabGet calls
	hits    atomic.Int64 // served from a pool
	misses  atomic.Int64 // pool empty (fresh make) or oversize
	puts    atomic.Int64 // buffers returned to a pool
	dropped atomic.Int64 // returned buffers with a non-class capacity
}

// defaultSlab is the process-wide allocator. Pools are per-size-class,
// lock-free (sync.Pool), and shared by every Store, I/O client and
// gateway in the process.
var defaultSlab slab

// classFor returns the class index for a request of n bytes, or -1 when
// n exceeds the largest class.
func classFor(n int64) int {
	if n <= 0 {
		return 0
	}
	for c := 0; c < slabClasses; c++ {
		if n <= 1<<(slabMinShift+c) {
			return c
		}
	}
	return -1
}

// SlabGet returns a buffer of length n drawn from the slab's size-class
// pools. The buffer's capacity is the class size (so SlabPut can route
// it home); contents are unspecified. Oversize requests fall back to a
// plain allocation and count as misses.
func SlabGet(n int64) []byte {
	defaultSlab.gets.Add(1)
	c := classFor(n)
	if c < 0 {
		defaultSlab.misses.Add(1)
		return make([]byte, n)
	}
	if v := defaultSlab.pools[c].Get(); v != nil {
		defaultSlab.hits.Add(1)
		return (*(v.(*[]byte)))[:n]
	}
	defaultSlab.misses.Add(1)
	return make([]byte, n, 1<<(slabMinShift+c))
}

// SlabPut returns a buffer to its size-class pool. Buffers whose
// capacity is not exactly a class size (anything SlabGet did not hand
// out, or an oversize fallback) are dropped for the GC. Safe to call
// with nil. The caller must not touch the buffer afterwards.
func SlabPut(b []byte) {
	if b == nil {
		return
	}
	if invariant.Enabled {
		b = b[:cap(b)]
		for i := range b {
			b[i] = slabPoison
		}
	}
	c := cap(b)
	if c < 1<<slabMinShift || c&(c-1) != 0 || c > 1<<slabMaxShift {
		defaultSlab.dropped.Add(1)
		return
	}
	defaultSlab.puts.Add(1)
	b = b[:cap(b)]
	defaultSlab.pools[classFor(int64(c))].Put(&b)
}

// SlabStats is a snapshot of the process-wide slab counters.
type SlabStats struct {
	Gets    int64
	Hits    int64
	Misses  int64
	Puts    int64
	Dropped int64
}

// HitRatio returns Hits/Gets (0 when nothing was requested).
func (s SlabStats) HitRatio() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// ReadSlabStats snapshots the slab counters.
func ReadSlabStats() SlabStats {
	return SlabStats{
		Gets:    defaultSlab.gets.Load(),
		Hits:    defaultSlab.hits.Load(),
		Misses:  defaultSlab.misses.Load(),
		Puts:    defaultSlab.puts.Load(),
		Dropped: defaultSlab.dropped.Load(),
	}
}

// SlabHits returns the cumulative pool-hit count (telemetry hook).
func SlabHits() int64 { return defaultSlab.hits.Load() }

// SlabMisses returns the cumulative pool-miss count (telemetry hook).
func SlabMisses() int64 { return defaultSlab.misses.Load() }

// SlabFrees returns the cumulative pooled-free count (telemetry hook).
func SlabFrees() int64 { return defaultSlab.puts.Load() }

// copiedBytes counts payload bytes memcpy'd on the read path (Store.Get,
// Store.ReadAt, and the serve-path copies the server and cluster fetcher
// report via CountCopied). The bench alloc scenario reads it before and
// after a run to compute bytes-copied-per-read; the zero-copy view path
// leaves it untouched.
var copiedBytes atomic.Int64

// CountCopied adds n payload bytes to the read-path copy ledger. Serve
// paths outside this package (server range fill, cluster remote-read
// splice) report their copies here so one counter covers the whole read
// path.
func CountCopied(n int64) { copiedBytes.Add(n) }

// CopiedBytes returns the cumulative read-path payload bytes copied.
func CopiedBytes() int64 { return copiedBytes.Load() }
