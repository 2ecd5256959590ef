package auditor

import "time"

// Stream readahead: the auditor sees every access, so it is where a
// sequential reader is recognized before any link has been learned. The
// ramp is fixed, like Linux readahead's; SeqBoost = 0 turns it off with
// the rest of sequencing.
const (
	// streamSlots is how many streams one open file tracks (LRU).
	streamSlots = 4
	// streamArm is the in-order request that earns a stream its first hint;
	// a run from its file's first segment, how a whole-file reader starts,
	// earns it one request earlier (Linux's readahead gives a read at
	// offset 0 its window early for the same reason).
	streamArm = 3
	// streamMaxSegs and streamMaxBytes cap how far beyond the reader a
	// stream is hinted; the bytes are one coalesced origin read of the
	// mover (its maxCoalesceBytes).
	streamMaxSegs  = 64
	streamMaxBytes = 8 << 20
	// debtMax bounds what a file owes for reads that fit no stream, so a
	// file that turns sequential is hinted again within about that many
	// in-order requests.
	debtMax = 8
)

// stream is one run of in-order requests over the bytes [off, end), which
// lie in the segments [start, next).
type stream struct {
	start, next int64
	off, end    int64
	// hinted is the first segment beyond the run not hinted yet: each
	// segment is hinted once per run.
	hinted int64
	reqs   int64
	used   uint64
	// armed is set by the run's first hint.
	armed bool
}

// streamTable holds a file's streams. Events carry no reader identity, so
// a read is matched to its stream by position.
type streamTable struct {
	slots [streamSlots]stream
	clock uint64
	// debt grows by two with every read that fits no stream and shrinks by
	// one with every in-order request (what mmap_miss is to Linux's
	// read-around); no stream of a file that owes more than one is hinted.
	// A reader's first request or a seek is repaid by its third, also when
	// two readers start together; random access is never repaid. Without
	// it one random read in a thousand over a 32-segment file is the third
	// of an accidental run, and 8 % as many hints as reads go out.
	debt int
}

// note records the read of the bytes [off, end) of a file of eof segments
// of seg bytes. A read that starts inside the bytes a stream has read or
// where they end, and reaches a segment beyond it, continues the stream; in
// the file's first segment so does one that starts where the stream's last
// request ended, so a reader of half segments from a file's start arms it
// as soon as a reader of whole ones (Linux readahead favours offset 0 so).
// Any other read that stays inside a stream is a reader trailing it and
// changes nothing, except that one starting where the stream ended moves
// its end: a sub-segment reader keeps its stream, the contiguous reads of
// one random record make none. Any other read is a seek and takes the
// least recently used slot. prev is the segment the read followed, -1 when
// unknown: the last one of the stream's previous request, for a seek that
// of the most recently used stream (a lone reader's previous request, so
// strided and irregular repeats stay learnable), for a trailing reader
// none. [from, to) are the segments to hint now: none before the stream's
// streamArm-th request (the second for a run from segment 0), before a run
// elsewhere has read streamArm segments' worth of bytes, or while the file
// owes more than one; then up to twice the run's length in bytes (at most
// maxAhead, never past eof) beyond the reader, extended when half of it is
// read. Once hinted, a run from segment 0 ramps at four times its length:
// its first window is still twice the run, so an accidental arm costs no
// more. A reader that outruns the origin gets a wider window: think is its
// compute time before this request and landing how long a hinted window
// takes to land, and the window is at least the ⌈landing ÷ think⌉ requests,
// counted a segment each, the reader makes while one lands (at most
// maxAhead). Either 0 means unknown and leaves the ramp alone.
func (t *streamTable) note(off, end, seg, eof, maxAhead int64, think, landing time.Duration) (prev, from, to int64) {
	t.clock++
	first, last := off/seg, (end-1)/seg
	var s, trailing *stream
	oldest, newest := &t.slots[0], &t.slots[0]
	for i := range t.slots {
		c := &t.slots[i]
		if c.reqs > 0 && first >= c.start && first <= c.next {
			if off <= c.end && (last >= c.next || off == c.end && c.next == 1) {
				s = c
				break
			}
			if off == c.end {
				c.end = end
			}
			trailing = c
		}
		if c.used < oldest.used {
			oldest = c
		}
		if c.used > newest.used {
			newest = c
		}
	}
	if s == nil {
		if trailing != nil {
			trailing.used = t.clock
			return -1, 0, 0
		}
		prev = -1
		if newest.reqs > 0 {
			prev = newest.next - 1
		}
		t.debt = min(t.debt+2, debtMax)
		*oldest = stream{start: first, next: last + 1, off: off, end: end, hinted: last + 1, reqs: 1, used: t.clock}
		return prev, 0, 0
	}
	prev = s.next - 1
	s.next, s.end = last+1, end
	s.reqs++
	s.used = t.clock
	if t.debt > 0 {
		t.debt--
	}
	arm, ramp := int64(streamArm), int64(2)
	if s.start == 0 {
		arm = streamArm - 1
		if s.armed {
			ramp = 4
		}
	}
	run := (s.end - s.off + seg - 1) / seg
	if s.reqs < arm || s.start > 0 && run < arm || t.debt > 1 || s.next >= eof {
		return prev, 0, 0
	}
	if s.hinted < s.next {
		s.hinted = s.next
	}
	window := maxAhead
	if run < maxAhead/ramp {
		window = ramp * run
	}
	if think > 0 && landing > 0 {
		window = max(window, min(maxAhead, int64((landing+think-1)/think)))
	}
	if s.hinted-s.next > window/2 {
		return prev, 0, 0
	}
	to = eof
	if eof-s.next > window {
		to = s.next + window
	}
	from = s.hinted
	if from >= to {
		return prev, 0, 0
	}
	s.hinted, s.armed = to, true
	return prev, from, to
}
