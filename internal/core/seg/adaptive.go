package seg

import "sort"

// Adaptive implements the paper's dynamic segment sizing: instead of a
// fixed grain, segment boundaries are derived from the request stream
// itself. The first time a byte range is observed it becomes a segment;
// later requests that partially overlap existing segments split them at
// the request boundaries, so the segmentation converges to the natural
// access granularity of the workload.
//
// Adaptive is not safe for concurrent use. The shipped server segments
// at a fixed grain; the abl-seg ablation runs Adaptive to price the
// paper's dynamic sizing against it.
type Adaptive struct {
	// segs is kept sorted by Off and non-overlapping.
	segs []Range
	// maxSegs caps fragmentation; when exceeded, adjacent segments are
	// coalesced pairwise.
	maxSegs int
}

// NewAdaptive returns an adaptive segmenter. maxSegs <= 0 means no cap.
func NewAdaptive(maxSegs int) *Adaptive {
	return &Adaptive{maxSegs: maxSegs}
}

// Segments returns the current segmentation, sorted by offset.
func (a *Adaptive) Segments() []Range {
	out := make([]Range, len(a.segs))
	copy(out, a.segs)
	return out
}

// Observe records a read of [off, off+ln) and returns the segments that
// cover it after any splitting. Boundaries of existing segments are
// preserved: a request overlapping part of a segment splits that segment
// at the request edges.
func (a *Adaptive) Observe(off, ln int64) []Range {
	if ln <= 0 || off < 0 {
		return nil
	}
	req := Range{Off: off, Len: ln}
	a.splitAt(req.Off)
	a.splitAt(req.End())
	// Insert any uncovered gaps inside the request as new segments.
	a.fillGaps(req)
	if a.maxSegs > 0 && len(a.segs) > a.maxSegs {
		a.coalesce()
	}
	return a.covering(req)
}

// splitAt splits the segment containing offset p (if any) into two at p.
func (a *Adaptive) splitAt(p int64) {
	i := sort.Search(len(a.segs), func(i int) bool { return a.segs[i].End() > p })
	if i >= len(a.segs) {
		return
	}
	s := a.segs[i]
	if s.Off >= p { // boundary already at or after p
		return
	}
	left := Range{Off: s.Off, Len: p - s.Off}
	right := Range{Off: p, Len: s.End() - p}
	a.segs[i] = left
	a.segs = append(a.segs, Range{})
	copy(a.segs[i+2:], a.segs[i+1:])
	a.segs[i+1] = right
}

// fillGaps creates segments for parts of req not covered by any segment.
func (a *Adaptive) fillGaps(req Range) {
	cur := req.Off
	i := sort.Search(len(a.segs), func(i int) bool { return a.segs[i].End() > req.Off })
	var add []Range
	for cur < req.End() {
		if i < len(a.segs) && a.segs[i].Off <= cur {
			cur = a.segs[i].End()
			i++
			continue
		}
		gapEnd := req.End()
		if i < len(a.segs) && a.segs[i].Off < gapEnd {
			gapEnd = a.segs[i].Off
		}
		if gapEnd > cur {
			add = append(add, Range{Off: cur, Len: gapEnd - cur})
		}
		cur = gapEnd
	}
	if len(add) == 0 {
		return
	}
	a.segs = append(a.segs, add...)
	sort.Slice(a.segs, func(i, j int) bool { return a.segs[i].Off < a.segs[j].Off })
}

// covering returns the segments overlapping req (they tile it exactly
// after Observe's splitting and gap filling).
func (a *Adaptive) covering(req Range) []Range {
	var out []Range
	i := sort.Search(len(a.segs), func(i int) bool { return a.segs[i].End() > req.Off })
	for ; i < len(a.segs) && a.segs[i].Off < req.End(); i++ {
		out = append(out, a.segs[i])
	}
	return out
}

// coalesce merges adjacent segment pairs to halve the segment count.
func (a *Adaptive) coalesce() {
	merged := make([]Range, 0, (len(a.segs)+1)/2)
	for i := 0; i < len(a.segs); i += 2 {
		if i+1 < len(a.segs) && a.segs[i].End() == a.segs[i+1].Off {
			merged = append(merged, Range{Off: a.segs[i].Off, Len: a.segs[i].Len + a.segs[i+1].Len})
		} else {
			merged = append(merged, a.segs[i])
			if i+1 < len(a.segs) {
				merged = append(merged, a.segs[i+1])
			}
		}
	}
	a.segs = merged
}
