package tiers

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"hfetch/internal/invariant"
)

// The slab allocator hands out segment-sized []byte buffers from
// size-classed free lists over memory the garbage collector does not
// see: the payload of a cache is live for as long as the cache says so,
// and counting it as heap makes the collector reserve GOGC head-room
// for bytes it can never free. Classes are powers of two from
// slabMinClass to slabMaxClass; a request is rounded up to its class
// and served from that class's free lists, which are carved from chunks
// of slabChunk bytes (one buffer a chunk for the classes above it) that
// the platform's chunk source maps already faulted in (chunk_linux.go;
// chunk_other.go where the platform has no anonymous mapping, over the
// same lists). A chunk is never unmapped, so a reader that holds a
// payload past its release reads poison or zeros and never faults. A
// request larger than the largest class, or one the source cannot map,
// falls back to a plain make and is counted as a miss — the buffer is
// usable, it just never returns to a list.
//
// Retention is sync.Pool's rule, so nobody chooses a number: a free
// buffer nobody asked for through two GC cycles gives its pages back to
// the OS (trim) and keeps its address for the next request to fault in
// again.
//
// SlabPut accepts any buffer: only a buffer that lies in one of its
// class's chunks is listed (that is every buffer SlabGet carved), the
// rest are dropped for the GC. This makes provenance tracking
// unnecessary — callers free what they own and the slab sorts it out.
// What nothing sorts out is a buffer that is never freed: off-heap
// memory has no collector behind it, so every SlabGet must reach a
// SlabPut (or a Buf.Release) on every path. InUseBytes is the ledger.
//
// Under -tags hfetch_invariants every freed buffer is poisoned with
// 0xDB first, so a reader holding a payload past its release observes
// garbage instead of silently racing a recycled buffer.
const (
	slabMinShift = 12 // 4 KiB
	slabMaxShift = 23 // 8 MiB
	slabClasses  = slabMaxShift - slabMinShift + 1

	// slabChunk is what one miss maps: large enough that a landing does
	// not pay a page fault per 4 KiB, small enough that a class in use
	// strands less than this much.
	slabChunk = 1 << 20
)

// SlabMaxBuf is the largest pooled buffer size; anything bigger is a
// plain allocation the slab never sees again.
const SlabMaxBuf = 1 << slabMaxShift

// slabPoison is the byte pattern written over freed buffers when
// invariants are compiled in ("dead buffer").
const slabPoison = 0xDB

// slabClass is one size class. Free buffers move young → old → cold as
// GC cycles pass without anyone asking for them; Get prefers the
// youngest (its pages are the likeliest to be cached).
type slabClass struct {
	mu     sync.Mutex
	young  [][]byte // freed since the last GC cycle
	old    [][]byte // free through one GC cycle
	cold   [][]byte // free through two: pages handed back, address kept
	chunks [][]byte // every chunk mapped for the class, by address

	gets, hits, misses, puts int64
	out                      int64 // buffers handed out and not yet returned
}

type slab struct {
	// newChunk maps n bytes (nil when it cannot); drop hands a free
	// buffer's pages back to the OS and is nil when the source has no
	// way to (heap chunks).
	newChunk func(n int) []byte
	drop     func(b []byte)

	classes [slabClasses]slabClass

	oversize atomic.Int64 // requests beyond the largest class
	dropped  atomic.Int64 // returned buffers the slab does not own
	trims    atomic.Int64 // GC cycles trimmed for
}

// defaultSlab is the process-wide allocator, shared by every Store, I/O
// client, connection and gateway in the process.
var defaultSlab = slab{newChunk: mapChunk, drop: dropPages}

func init() {
	if defaultSlab.drop != nil {
		defaultSlab.trimEveryCycle()
	}
}

// gcTick is the sentinel whose finalizer is the collector's own clock:
// it runs once after the GC cycle that finds the sentinel unreachable.
type gcTick struct{ s *slab }

// trimEveryCycle runs trim after every GC cycle (no goroutine, no
// timer): each run leaves the next sentinel behind.
func (s *slab) trimEveryCycle() {
	runtime.SetFinalizer(&gcTick{s}, func(t *gcTick) {
		t.s.trim()
		t.s.trimEveryCycle()
	})
}

// trim ages every class by one GC cycle: the old buffers nobody took
// give their pages back, then the young ones become old. A Get or Put
// waits for at most a few buffers' worth of system calls.
func (s *slab) trim() {
	for c := range s.classes {
		cl := &s.classes[c]
		for aged := false; !aged; {
			cl.mu.Lock()
			for k := 0; k < 16 && len(cl.old) > 0; k++ {
				b := pop(&cl.old)
				s.drop(b)
				cl.cold = append(cl.cold, b)
			}
			aged = len(cl.old) == 0
			if aged {
				cl.old, cl.young = cl.young, cl.old
			}
			cl.mu.Unlock()
		}
	}
	s.trims.Add(1)
}

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

// pop takes the last buffer of a free list.
func pop(list *[][]byte) []byte {
	l := *list
	b := l[len(l)-1]
	l[len(l)-1] = nil
	*list = l[:len(l)-1]
	return b
}

func (s *slab) get(n int64) []byte {
	c := classFor(n)
	if c < 0 {
		s.oversize.Add(1)
		return make([]byte, n)
	}
	size := 1 << (slabMinShift + c)
	cl := &s.classes[c]
	cl.mu.Lock()
	cl.gets++
	if len(cl.young)+len(cl.old)+len(cl.cold) > 0 {
		cl.hits++
	} else {
		cl.misses++
		chunk := s.newChunk(max(size, slabChunk))
		if chunk == nil {
			cl.mu.Unlock()
			return make([]byte, n)
		}
		cl.addChunk(chunk)
		for off := 0; off < len(chunk); off += size {
			cl.young = append(cl.young, chunk[off:off+size:off+size])
		}
	}
	list := &cl.young
	if len(cl.young) == 0 {
		if list = &cl.old; len(cl.old) == 0 {
			list = &cl.cold
		}
	}
	b := pop(list)
	cl.out++
	cl.mu.Unlock()
	return b[:n]
}

// addChunk records a new chunk, keeping chunks ordered by address.
func (cl *slabClass) addChunk(chunk []byte) {
	i := cl.chunkAbove(addrOf(chunk))
	cl.chunks = append(cl.chunks, nil)
	copy(cl.chunks[i+1:], cl.chunks[i:])
	cl.chunks[i] = chunk
}

func addrOf(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

// chunkAbove returns the index of the first chunk that starts above p.
func (cl *slabClass) chunkAbove(p uintptr) int {
	lo, hi := 0, len(cl.chunks)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); addrOf(cl.chunks[mid]) <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// owns reports whether b (of the class's capacity) is a buffer carved
// from one of the class's chunks.
func (cl *slabClass) owns(b []byte) bool {
	p := addrOf(b)
	i := cl.chunkAbove(p)
	if i == 0 {
		return false
	}
	off := p - addrOf(cl.chunks[i-1])
	return off < uintptr(len(cl.chunks[i-1])) && off%uintptr(cap(b)) == 0
}

func (s *slab) put(b []byte) {
	if b == nil {
		return
	}
	b = b[:cap(b)]
	if invariant.Enabled {
		for i := range b {
			b[i] = slabPoison
		}
	}
	n := len(b)
	if n < 1<<slabMinShift || n&(n-1) != 0 || n > 1<<slabMaxShift {
		s.dropped.Add(1)
		return
	}
	cl := &s.classes[classFor(int64(n))]
	cl.mu.Lock()
	if !cl.owns(b) {
		cl.mu.Unlock()
		s.dropped.Add(1)
		return
	}
	cl.puts++
	cl.out--
	if invariant.Enabled && cl.out < 0 {
		invariant.Assert(false, "slab class %d: more buffers returned than handed out", n)
	}
	cl.young = append(cl.young, b)
	cl.mu.Unlock()
}

// SlabGet returns a buffer of length n drawn from the slab's size-class
// free lists. The buffer's capacity is the class size (so SlabPut can
// route it home); contents are unspecified. The caller owns it until it
// hands it to SlabPut, or to a Buf whose last Release does: nothing
// else ever frees it. Oversize requests fall back to a plain allocation
// and count as misses.
func SlabGet(n int64) []byte { return defaultSlab.get(n) }

// SlabPut returns a buffer to its size-class free list. Buffers the
// slab did not carve (a capacity that is no class size, an oversize
// fallback, anything made elsewhere) are dropped for the GC. Safe to
// call with nil. The caller must not touch the buffer afterwards.
func SlabPut(b []byte) { defaultSlab.put(b) }

// SlabStats is a snapshot of the process-wide slab counters.
type SlabStats struct {
	Gets    int64
	Hits    int64 // served from a free list
	Misses  int64 // mapped a new chunk, or oversize
	Puts    int64
	Dropped int64
	// InUseBytes is what SlabGet has handed out and SlabPut has not yet
	// seen, in class sizes: resident payload plus buffers in flight. It
	// returns to where it started when every owner has released.
	InUseBytes int64
	// MappedBytes is the address space the slab has mapped; it never
	// falls. MappedBytes - InUseBytes is what the free lists hold.
	MappedBytes int64
}

// HitRatio returns Hits/Gets (0 when nothing was requested).
func (s SlabStats) HitRatio() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// stats sums the classes' counters; cold is the part of MappedBytes
// whose pages have been handed back.
func (s *slab) stats() (st SlabStats, cold int64) {
	over := s.oversize.Load()
	st = SlabStats{Gets: over, Misses: over, Dropped: s.dropped.Load()}
	for c := range s.classes {
		cl := &s.classes[c]
		size := int64(1) << (slabMinShift + c)
		cl.mu.Lock()
		st.Gets += cl.gets
		st.Hits += cl.hits
		st.Misses += cl.misses
		st.Puts += cl.puts
		st.InUseBytes += cl.out * size
		st.MappedBytes += int64(len(cl.chunks)) * max(size, slabChunk)
		cold += int64(len(cl.cold)) * size
		cl.mu.Unlock()
	}
	return st, cold
}

// ReadSlabStats snapshots the slab counters.
func ReadSlabStats() SlabStats {
	st, _ := defaultSlab.stats()
	return st
}

// SlabHits returns the cumulative free-list hit count (telemetry hook).
func SlabHits() int64 { return ReadSlabStats().Hits }

// SlabMisses returns the cumulative miss count (telemetry hook).
func SlabMisses() int64 { return ReadSlabStats().Misses }

// SlabFrees returns the cumulative listed-free count (telemetry hook).
func SlabFrees() int64 { return ReadSlabStats().Puts }

// SlabInUseBytes returns SlabStats.InUseBytes (telemetry hook).
func SlabInUseBytes() int64 { return ReadSlabStats().InUseBytes }

// SlabMappedBytes returns SlabStats.MappedBytes (telemetry hook).
func SlabMappedBytes() int64 { return ReadSlabStats().MappedBytes }

// copiedBytes counts payload bytes memcpy'd on the read path
// (Store.ReadAt, and the copy the cluster fetcher reports via
// CountCopied). The bench alloc scenario reads it before and
// after a run to compute bytes-copied-per-read; the zero-copy view path
// leaves it untouched.
var copiedBytes atomic.Int64

// CountCopied adds n payload bytes to the read-path copy ledger. Serve
// paths outside this package (the cluster remote-read splice) report
// their copies here so one counter covers the whole read path.
func CountCopied(n int64) { copiedBytes.Add(n) }

// CopiedBytes returns the cumulative read-path payload bytes copied.
func CopiedBytes() int64 { return copiedBytes.Load() }
