package auditor

// Stream readahead: the auditor sees every access, so it is where a
// sequential reader is recognized before any link has been learned. The
// ramp is fixed, like Linux readahead's; SeqBoost = 0 turns it off with
// the rest of sequencing.
const (
	// streamSlots is how many streams one open file tracks (LRU).
	streamSlots = 4
	// streamArm is the in-order request that earns a stream its first hint.
	streamArm = 3
	// streamMaxSegs and streamMaxBytes cap how far beyond the reader a
	// stream is hinted; the bytes are one coalesced origin read of the
	// mover (mover.Config.MaxCoalesceBytes).
	streamMaxSegs  = 64
	streamMaxBytes = 8 << 20
	// debtMax bounds what a file owes for reads that fit no stream, so a
	// file that turns sequential is hinted again within about that many
	// in-order requests.
	debtMax = 8
)

// stream is one run of in-order requests over the segments [start, next).
type stream struct {
	start, next int64
	// hinted is the first segment beyond the run not hinted yet: each
	// segment is hinted once per run.
	hinted int64
	reqs   int64
	used   uint64
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

// note records the read of segments first..last (first <= last) of a file
// of eof segments. A read that starts inside a stream or at its end and
// reaches beyond it continues the stream; one that stays inside belongs
// to a reader trailing it and changes nothing; any other is a seek and
// takes the least recently used slot. prev is the segment the read
// followed, -1 when unknown: the last one of the stream's previous
// request, for a seek that of the most recently used stream (a lone
// reader's previous request, so strided and irregular repeats stay
// learnable), for a trailing reader none. [from, to) are the segments to
// hint now: none before the stream's streamArm-th request or while the
// file owes more than one, then up to twice the run's length (at most
// maxAhead, never past eof) beyond the reader, extended when the reader
// has consumed half of it.
func (t *streamTable) note(first, last, eof, maxAhead int64) (prev, from, to int64) {
	t.clock++
	var s, trailing *stream
	oldest, newest := &t.slots[0], &t.slots[0]
	for i := range t.slots {
		c := &t.slots[i]
		if c.reqs > 0 && first >= c.start && first <= c.next {
			if last >= c.next {
				s = c
				break
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
		if t.debt < debtMax {
			t.debt += 2
		}
		*oldest = stream{start: first, next: last + 1, hinted: last + 1, reqs: 1, used: t.clock}
		return prev, 0, 0
	}
	prev = s.next - 1
	s.next = last + 1
	s.reqs++
	s.used = t.clock
	if t.debt > 0 {
		t.debt--
	}
	if s.reqs < streamArm || t.debt > 1 || s.next >= eof {
		return prev, 0, 0
	}
	if s.hinted < s.next {
		s.hinted = s.next
	}
	window := maxAhead
	if run := s.next - s.start; run < maxAhead/2 {
		window = 2 * run
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
	s.hinted = to
	return prev, from, to
}
