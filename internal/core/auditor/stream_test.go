package auditor

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"hfetch/internal/core/heatmap"
	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
	"hfetch/internal/events"
)

// rd is one read of the segments first..last and what the detector must
// answer: the predecessor it names and the half-open range it hints.
type rd struct {
	first, last    int64
	prev, from, to int64
}

func TestStreamDetector(t *testing.T) {
	for _, c := range []struct {
		name     string
		eof, cap int64
		reads    []rd
	}{
		{"arms on the third in-order request and not before", 1000, 64, []rd{
			{0, 0, -1, 0, 0},
			{1, 1, 0, 0, 0},
			{2, 2, 1, 3, 9}, // run 3: window 6
			{3, 3, 2, 0, 0}, // 5 of a window of 8 still ahead
			{4, 4, 3, 9, 15},
		}},
		{"a multi-segment read advances the run by its span", 1000, 64, []rd{
			{0, 3, -1, 0, 0},
			{4, 7, 3, 0, 0},
			{8, 11, 7, 12, 36}, // run 12: window 24
		}},
		{"a read that overlaps the end of the run continues it", 1000, 64, []rd{
			{0, 1, -1, 0, 0},
			{1, 2, 1, 0, 0},
			{2, 3, 2, 4, 12},
		}},
		{"the window stops at the cap", 1000, 8, []rd{
			{0, 9, -1, 0, 0},
			{10, 19, 9, 0, 0},
			{20, 29, 19, 30, 38},
			{30, 39, 29, 40, 48},
		}},
		{"the window stops at EOF", 8, 64, []rd{
			{0, 0, -1, 0, 0},
			{1, 1, 0, 0, 0},
			{2, 2, 1, 3, 8},
			{3, 3, 2, 0, 0},
			{4, 4, 3, 0, 0},
			{5, 7, 4, 0, 0}, // the reader at EOF: nothing beyond it
		}},
		{"a jump re-homes a slot and the new run arms on its own third request", 1000, 64, []rd{
			{0, 0, -1, 0, 0},
			{1, 1, 0, 0, 0},
			{2, 2, 1, 3, 9},
			{500, 500, 2, 0, 0}, // a seek follows the last request
			{501, 501, 500, 0, 0},
			{502, 502, 501, 503, 509},
		}},
		{"a backward seek out of the run re-homes a slot", 1000, 64, []rd{
			{100, 100, -1, 0, 0},
			{101, 101, 100, 0, 0},
			{102, 102, 101, 103, 109},
			{50, 50, 102, 0, 0},
			{51, 51, 50, 0, 0},
			{52, 52, 51, 53, 59},
		}},
		{"a reader trailing by 3 changes nothing", 1000, 64, []rd{
			{0, 0, -1, 0, 0},
			{1, 1, 0, 0, 0},
			{2, 2, 1, 3, 9},
			{3, 3, 2, 0, 0},
			{0, 0, -1, 0, 0}, // B
			{4, 4, 3, 9, 15},
			{1, 1, -1, 0, 0}, // B
			{5, 5, 4, 0, 0},
			{2, 2, -1, 0, 0}, // B
			{6, 6, 5, 0, 0},
			{3, 3, -1, 0, 0}, // B
			{7, 7, 6, 15, 24},
		}},
		{"two readers at distant offsets keep a stream each", 1000, 64, []rd{
			{0, 0, -1, 0, 0},
			{600, 600, 0, 0, 0}, // B's first request looks like A seeking
			{1, 1, 0, 0, 0},
			{601, 601, 600, 0, 0},
			{2, 2, 1, 3, 9},
			{602, 602, 601, 603, 609},
			{3, 3, 2, 0, 0},
			{603, 603, 602, 0, 0},
			{4, 4, 3, 9, 15},
			{604, 604, 603, 609, 615},
		}},
		{"a fifth stream takes the least recently used slot", 1000, 64, []rd{
			{0, 0, -1, 0, 0},
			{100, 100, 0, 0, 0},
			{200, 200, 100, 0, 0},
			{300, 300, 200, 0, 0},
			{1, 1, 0, 0, 0}, // slot 0 is now the most recent
			{400, 400, 1, 0, 0},
			{101, 101, 400, 0, 0}, // 100's slot was taken: a new stream
			{2, 2, 1, 0, 0},       // 0's was not, but the file is in debt
		}},
		{"an unknown file size hints nothing", 0, 64, []rd{
			{0, 0, -1, 0, 0},
			{1, 1, 0, 0, 0},
			{2, 2, 1, 0, 0},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var tab streamTable
			for i, r := range c.reads {
				prev, from, to := tab.note(r.first, r.last, c.eof, c.cap)
				if prev != r.prev || from != r.from || to != r.to {
					t.Fatalf("read %d (%d..%d): prev %d, hints [%d, %d); want prev %d, hints [%d, %d)",
						i, r.first, r.last, prev, from, to, r.prev, r.from, r.to)
				}
			}
		})
	}
}

// TestStreamWindowRamp follows one reader to the end of a long file: the
// frontier never runs further ahead than twice the run or the cap, each
// segment is hinted once, and the last hint ends at EOF.
func TestStreamWindowRamp(t *testing.T) {
	const eof, maxAhead = 500, 64
	var tab streamTable
	frontier, widest := int64(0), int64(0)
	for i := int64(0); i < eof; i++ {
		_, from, to := tab.note(i, i, eof, maxAhead)
		if from >= to {
			continue
		}
		if i < streamArm-1 {
			t.Fatalf("read %d hinted [%d, %d) before the stream armed", i, from, to)
		}
		if frontier != 0 && from != frontier {
			t.Fatalf("read %d hinted [%d, %d), the frontier was %d", i, from, to, frontier)
		}
		ahead := to - (i + 1)
		if ahead > 2*(i+1) || ahead > maxAhead || to > eof {
			t.Fatalf("read %d of a run of %d hinted up to %d (eof %d)", i, i+1, to, eof)
		}
		frontier, widest = to, max(widest, ahead)
	}
	if widest != maxAhead || frontier != eof {
		t.Fatalf("widest window %d, want the cap %d; last hint ended at %d, want EOF %d", widest, maxAhead, frontier, eof)
	}
}

// TestRandomReadsAreNotHinted is warm_read's and event_storm's geometry.
func TestRandomReadsAreNotHinted(t *testing.T) {
	const files, segs, reads = 64, 32, 10000
	a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	names := make([]string, files)
	for i := range names {
		names[i] = "f" + string(rune('A'+i))
		a.StartEpoch(names[i], segs*100)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < reads; i++ {
		a.HandleEvent(readEv(names[rng.Intn(files)], rng.Int63n(segs)*100, 100))
	}
	hinted := 0
	ups, _ := sink.snapshot()
	for _, u := range ups {
		if u.Ahead {
			hinted++
		}
	}
	if got := a.Counters().Hints; int64(hinted) != got {
		t.Fatalf("%d updates marked Ahead, counter says %d", hinted, got)
	}
	if hinted*1000 >= reads {
		t.Fatalf("%d hinted updates from %d random reads, want < 0.1 %%", hinted, reads)
	}
}

// TestInterleavedReadersLearnTheirOwnLinks: B trails A by 3 over a
// 32-segment file, three sweeps. With one predecessor per file the two
// linked each other's positions: segment 10 ended every sweep with
// successor 14, and the sweeps with 3, 5 and 7 references.
func TestInterleavedReadersLearnTheirOwnLinks(t *testing.T) {
	a, _ := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	a.StartEpoch("f", 3200)
	for sweep := 0; sweep < 3; sweep++ {
		for i := int64(0); i < 32+3; i++ {
			if i < 32 {
				a.HandleEvent(readEv("f", i*100, 100)) // A
			}
			if i >= 3 {
				a.HandleEvent(readEv("f", (i-3)*100, 100)) // B
			}
		}
		rec, _ := a.SegmentRec(seg.ID{File: "f", Index: 10})
		if rec.Succ != 11 || rec.Stats.Refs != 2 {
			t.Fatalf("sweep %d: segment 10 has successor %d and %d references, want 11 and 2", sweep, rec.Succ, rec.Stats.Refs)
		}
	}
}

func TestHintedNeverReadRecord(t *testing.T) {
	store, _ := heatmap.NewStore(t.TempDir())
	learner := score.NewLearned(0.1, time.Second)
	a, sink := newAuditor(t, Config{
		Segmenter: seg.NewSegmenter(100),
		Score:     score.Params{P: 2, Unit: time.Millisecond},
		Heatmaps:  store,
		Learner:   learner,
	})
	a.StartEpoch("f", 2000)
	for i := int64(0); i < 3; i++ {
		a.HandleEvent(readEv("f", i*100, 100))
	}
	ups, _ := sink.snapshot()
	var hinted []int64
	for _, u := range ups {
		if u.Ahead {
			if u.Score <= 0 || u.Size != 100 || u.Trace != 0 {
				t.Fatalf("hint %+v: want a positive score, the segment's size and no trace", u)
			}
			hinted = append(hinted, u.ID.Index)
		}
	}
	if len(hinted) != 6 || hinted[0] != 3 || hinted[5] != 8 || a.Counters().Hints != 6 {
		t.Fatalf("hinted %v (counter %d), want segments 3..8", hinted, a.Counters().Hints)
	}
	rec, ok := a.SegmentRec(seg.ID{File: "f", Index: 8})
	if !ok || rec.Stats.K != 0 || rec.Stats.Refs < 1 {
		t.Fatalf("hinted record %+v %v, want K = 0 and a reference", rec, ok)
	}
	a.EndEpoch("f")
	// The three segments read once are negatives; the six hinted are not
	// accesses at all.
	if pos, neg := learner.Examples(); pos != 0 || neg != 3 {
		t.Fatalf("learner saw %d positives and %d negatives, want 0 and 3", pos, neg)
	}
	time.Sleep(30 * time.Millisecond)
	if removed := a.Sweep(time.Now(), 0.01); removed != 9 {
		t.Fatalf("sweep removed %d records, want the 3 read and the 6 hinted", removed)
	}
}

func TestSeqBoostZeroDisablesStreams(t *testing.T) {
	a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100), SeqBoost: -1})
	a.StartEpoch("f", 10000)
	for i := int64(0); i < 10; i++ {
		a.HandleEvent(readEv("f", i*100, 100))
	}
	ups, _ := sink.snapshot()
	if len(ups) != 10 || a.Counters().Hints != 0 || a.Counters().SegmentsSeen != 10 {
		t.Fatalf("%d updates, counters %+v: want the 10 reads and no hint", len(ups), a.Counters())
	}
	if rec, _ := a.SegmentRec(seg.ID{File: "f", Index: 4}); rec.Succ != -1 || rec.Stats.Refs != 1 {
		t.Fatalf("segment 4 learned successor %d and %d references with sequencing off", rec.Succ, rec.Stats.Refs)
	}
}

// TestOnlyAgentReadsAreHinted: a gateway read moves a stream and teaches
// its link but is hinted by the gateway's detector; a gateway hint is not
// an access at all.
func TestOnlyAgentReadsAreHinted(t *testing.T) {
	a, _ := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	a.StartEpoch("gw", 10000)
	a.StartEpoch("mixed", 10000)
	for i := int64(0); i < 8; i++ {
		ev := readEv("gw", i*100, 100)
		ev.Via = events.ViaGateway
		a.HandleEvent(ev)
		hint := readEv("gw", (i+4)*100, 100)
		hint.Via = events.ViaHint
		a.HandleEvent(hint)
	}
	if h := a.Counters().Hints; h != 0 {
		t.Fatalf("%d hints from gateway traffic", h)
	}
	if rec, _ := a.SegmentRec(seg.ID{File: "gw", Index: 5}); rec.Succ != 6 {
		t.Fatalf("gateway reads interleaved with hints: successor of 5 is %d, want 6", rec.Succ)
	}
	// An agent reader whose every other request is overtaken by a hint
	// event still runs in order.
	for i := int64(0); i < 3; i++ {
		a.HandleEvent(readEv("mixed", i*100, 100))
		hint := readEv("mixed", 5000, 100)
		hint.Via = events.ViaHint
		a.HandleEvent(hint)
	}
	if h := a.Counters().Hints; h != 6 {
		t.Fatalf("%d hints for the agent stream, want 6", h)
	}
}

// FuzzStreamDetector plays arbitrary reads, negative and past EOF among
// them, against a file of arbitrary size: whatever is hinted lies inside
// the file, no run hints a segment twice, and one event hints no more
// than the cap.
func FuzzStreamDetector(f *testing.F) {
	seq := make([]byte, 0, 9*40)
	for i := 0; i < 40; i++ {
		seq = append(seq, 0) // continue where the last read ended
		seq = binary.BigEndian.AppendUint64(seq, 0)
	}
	f.Add(int64(6400), seq)
	f.Add(int64(0), seq)
	f.Add(int64(-5), append(append([]byte{1}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), seq...))
	f.Add(int64(1<<62), append(append([]byte{0x7d}, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00), seq...))
	f.Fuzz(func(t *testing.T, size int64, ops []byte) {
		const segSize = 100
		a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(segSize)})
		a.StartEpoch("f", size)
		eof := a.Segmenter().Count(size)
		var seen [streamSlots]map[int64]bool
		var end int64
		done := 0
		for ; len(ops) >= 9 && done < 512; ops = ops[9:] {
			kind, raw := ops[0], int64(binary.BigEndian.Uint64(ops[1:9]))
			off := end
			switch kind & 3 {
			case 1:
				off = raw
			case 2:
				off = raw % (2*max(size, 1) + 1)
			case 3:
				off = end - raw%(64*segSize)
			}
			length := int64(kind>>2)*segSize/2 + raw%3
			if kind&0x80 != 0 {
				length = -length
			}
			a.HandleEvent(readEv("f", off, length))
			if off >= 0 && length > 0 && off+length > 0 {
				end = off + length
			}

			ups, _ := sink.snapshot()
			hinted := ups[done:]
			done = len(ups)
			st := a.epochStripeOf("f")
			st.mu.Lock()
			tab := &st.m["f"].streams
			run := -1
			for i := range tab.slots {
				if tab.slots[i].used != tab.clock || tab.slots[i].reqs == 0 {
					continue
				}
				if run = i; tab.slots[i].reqs == 1 {
					seen[i] = nil // the slot was re-homed: a new run
				}
			}
			st.mu.Unlock()
			n := int64(0)
			for _, u := range hinted {
				if !u.Ahead {
					continue
				}
				n++
				if u.ID.Index < 0 || u.ID.Index >= eof {
					t.Fatalf("hinted segment %d of a file of %d", u.ID.Index, eof)
				}
				if run < 0 {
					t.Fatalf("hint %d from no stream", u.ID.Index)
				}
				if seen[run] == nil {
					seen[run] = map[int64]bool{}
				}
				if seen[run][u.ID.Index] {
					t.Fatalf("segment %d hinted twice within one run", u.ID.Index)
				}
				seen[run][u.ID.Index] = true
			}
			if n > a.maxAhead {
				t.Fatalf("one event hinted %d segments, cap %d", n, a.maxAhead)
			}
		}
	})
}
