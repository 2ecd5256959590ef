package server

import (
	"io"
	"sync"

	"hfetch/internal/core/seg"
	"hfetch/internal/tiers"
)

// RangeView is a pinned, vectored window over one byte range of a file.
// Opening it resolves every covered segment against the local hierarchy
// under ONE lock acquisition per tier (tiers.Store.ReadVec) and pins the
// resident payloads, so subsequent Next calls serve tier hits straight
// from the pinned buffers — by reference, zero copies — while misses
// fall back to the usual prefetched-read path (including the stall/
// rescue wait on an in-flight mover fetch) and, last, the PFS.
//
// Buffer ownership: the view holds one reference per pinned segment
// from open to Close. Eviction, demotion or an invalidating write that
// races the view merely drops the store's reference — the bytes the
// view is serving stay valid until Close releases them. Views are
// pooled; a Close'd view must not be touched again.
type RangeView struct {
	s    *Server
	file string
	size int64

	pos   int64 // absolute cursor
	end   int64 // absolute exclusive range end (clipped to size)
	first int64 // segment index of ids[0]

	ids    []seg.ID
	bufs   []*tiers.Buf // pinned payloads aligned with ids; nil = not resident
	tierOf []string     // serving tier per pinned entry
	served []bool       // hit accounting done for this entry

	scratchIDs  []seg.ID
	scratchBufs []*tiers.Buf
	scratchPos  []int

	hits      int
	misses    int
	zero      int64 // bytes served by reference
	truncated bool  // short PFS read observed: the range ends early
}

// viewPool recycles RangeViews (with their segment-table slices) so the
// per-request view costs no steady-state allocations.
var viewPool = sync.Pool{New: func() any { return new(RangeView) }}

// OpenRangeView pins the resident segments covering want bytes of file
// at offset off, one vectored read per tier. size is the caller's
// pinned view of the file length (normally from the Stat that opened
// the request) so a concurrent truncation cannot over-read. The caller
// must Close the view exactly once, on every path.
func (s *Server) OpenRangeView(file string, size, off, want int64) *RangeView {
	v := viewPool.Get().(*RangeView)
	v.s, v.file, v.size = s, file, size
	v.hits, v.misses, v.zero, v.truncated = 0, 0, 0, false
	if off < 0 || off >= size || want <= 0 {
		v.pos, v.end = 0, 0
		v.resize(0)
		return v
	}
	end := off + want
	if end > size {
		end = size
	}
	v.pos, v.end = off, end
	v.first = s.segr.IndexOf(off)
	n := int(s.segr.IndexOf(end-1) - v.first + 1)
	v.resize(n)
	for i := 0; i < n; i++ {
		v.ids[i] = seg.ID{File: file, Index: v.first + int64(i)}
		v.bufs[i] = nil
		v.tierOf[i] = ""
		v.served[i] = false
	}
	// Pin whatever is resident: one ReadVec — one lock acquisition, one
	// batched device charge — per tier, walking fastest-first so a
	// segment resident twice (transiently, mid-move) is served from the
	// faster copy.
	pinned := 0
	for _, st := range s.hier.Stores() {
		if pinned == n {
			break
		}
		v.scratchIDs = v.scratchIDs[:0]
		v.scratchPos = v.scratchPos[:0]
		v.scratchBufs = v.scratchBufs[:0]
		for i := 0; i < n; i++ {
			if v.bufs[i] == nil {
				v.scratchIDs = append(v.scratchIDs, v.ids[i])
				v.scratchPos = append(v.scratchPos, i)
				v.scratchBufs = append(v.scratchBufs, nil)
			}
		}
		found, _ := st.ReadVec(v.scratchIDs, v.scratchBufs)
		if found == 0 {
			continue
		}
		name := st.Name()
		for k, b := range v.scratchBufs {
			if b != nil {
				i := v.scratchPos[k]
				v.bufs[i] = b
				v.tierOf[i] = name
				pinned++
			}
		}
	}
	return v
}

// Next returns the next run of bytes of the range, at most len(dst)
// long (callers chunk their writes — e.g. for a per-chunk generation
// check — by sizing dst). When pinned is true the chunk aliases a
// pinned tier buffer and dst is untouched: write it out, do not retain
// it past Close. When pinned is false the chunk is dst[:n], filled via
// the prefetched-read or PFS path. io.EOF signals the range (or the
// file, on a short origin read) is exhausted.
//
//hfetch:hotpath
func (v *RangeView) Next(dst []byte) (chunk []byte, pinned bool, err error) {
	if v.truncated || v.pos >= v.end || len(dst) == 0 {
		return nil, false, io.EOF
	}
	s := v.s
	idx := s.segr.IndexOf(v.pos)
	i := int(idx - v.first)
	segStart := idx * s.segr.Size()
	segOff := v.pos - segStart
	cl := v.end - v.pos
	if int64(len(dst)) < cl {
		cl = int64(len(dst))
	}
	if b := v.bufs[i]; b != nil {
		data := b.Bytes()
		if segOff < int64(len(data)) {
			if avail := int64(len(data)) - segOff; cl > avail {
				cl = avail
			}
			if !v.served[i] {
				v.served[i] = true
				v.hits++
				v.accountHit(i, segStart, int64(len(data)))
			}
			v.pos += cl
			v.zero += cl
			s.zeroCopy.Add(cl)
			return data[segOff : segOff+cl], true, nil
		}
		// Pinned payload ends before the cursor (clipped grain): the
		// remainder of this segment is a miss.
	}
	if segEnd := s.segr.RangeOf(v.ids[i], v.size).End(); segEnd-v.pos < cl {
		cl = segEnd - v.pos
	}
	if cl <= 0 {
		return nil, false, io.EOF
	}
	out := dst[:cl]
	if got, _, ok := s.ReadPrefetched(v.ids[i], segOff, out); ok && int64(got) == cl {
		// ReadPrefetched did the hit accounting (it may have stalled for
		// an in-flight fetch and rescued); only the range tally is ours.
		v.hits++
		v.pos += cl
		return out, false, nil
	}
	got, _, rerr := s.fs.ReadAt(v.file, v.pos, out)
	if rerr != nil {
		return nil, false, rerr
	}
	v.misses++
	v.pos += int64(got)
	if int64(got) < cl {
		v.truncated = true
		if got == 0 {
			return nil, false, io.EOF
		}
	}
	return out[:got], false, nil
}

// accountHit performs the server-level hit accounting ReadPrefetched
// would have done, once per pinned segment, charging the clipped extent
// the view will serve from it.
func (v *RangeView) accountHit(i int, segStart, segLen int64) {
	s := v.s
	id := v.ids[i]
	tier := v.tierOf[i]
	lo := segStart
	if v.pos > lo {
		lo = v.pos
	}
	hi := segStart + segLen
	if hi > v.end {
		hi = v.end
	}
	if lc := s.tele.Lifecycle(); lc != nil {
		lc.OnReadHit(id.File, id.Index, tier, false)
	}
	s.iostats.Hit(tier, hi-lo)
}

// Hits returns the per-segment tier-hit count so far.
func (v *RangeView) Hits() int { return v.hits }

// Misses returns the per-segment PFS-fallback count so far.
func (v *RangeView) Misses() int { return v.misses }

// ZeroCopyBytes returns the bytes this view served by reference.
func (v *RangeView) ZeroCopyBytes() int64 { return v.zero }

// Close releases every pinned buffer and recycles the view. Required
// exactly once, on every path; the view and any pinned chunk obtained
// from Next must not be touched afterwards.
func (v *RangeView) Close() {
	for i, b := range v.bufs {
		if b != nil {
			b.Release()
			v.bufs[i] = nil
		}
	}
	for k := range v.scratchBufs {
		v.scratchBufs[k] = nil
	}
	v.s = nil
	viewPool.Put(v)
}

func (v *RangeView) resize(n int) {
	if cap(v.ids) < n {
		v.ids = make([]seg.ID, n)
		v.bufs = make([]*tiers.Buf, n)
		v.tierOf = make([]string, n)
		v.served = make([]bool, n)
		return
	}
	v.ids = v.ids[:n]
	v.bufs = v.bufs[:n]
	v.tierOf = v.tierOf[:n]
	v.served = v.served[:n]
}
