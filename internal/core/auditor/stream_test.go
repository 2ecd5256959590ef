package auditor

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hfetch/internal/core/heatmap"
	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
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
		{"a run from segment 0 arms on its second request, then ramps at four times the run", 1000, 64, []rd{
			{0, 0, -1, 0, 0},
			{1, 1, 0, 2, 6},  // run 2: a first window of 4
			{2, 2, 1, 6, 15}, // run 3: window 12
			{3, 3, 2, 0, 0},  // 11 of a window of 16 still ahead
			{4, 4, 3, 15, 25},
		}},
		{"arms on the third in-order request and not before", 1000, 64, []rd{
			{10, 10, -1, 0, 0}, // a run away from segment 0
			{11, 11, 10, 0, 0},
			{12, 12, 11, 13, 19}, // run 3: window 6
			{13, 13, 12, 0, 0},   // 5 of a window of 8 still ahead
			{14, 14, 13, 19, 25},
		}},
		{"a multi-segment read advances the run by its span", 1000, 64, []rd{
			{100, 103, -1, 0, 0},
			{104, 107, 103, 0, 0},
			{108, 111, 107, 112, 136}, // run 12: window 24
		}},
		{"a read that overlaps the end of the run continues it", 1000, 64, []rd{
			{10, 11, -1, 0, 0},
			{11, 12, 11, 0, 0},
			{12, 13, 12, 14, 22},
		}},
		{"the window stops at the cap", 1000, 8, []rd{
			{0, 9, -1, 0, 0}, // also for a run from segment 0
			{10, 19, 9, 20, 28},
			{20, 29, 19, 30, 38},
			{30, 39, 29, 40, 48},
		}},
		{"the window stops at EOF", 8, 64, []rd{
			{0, 0, -1, 0, 0},
			{1, 1, 0, 2, 6},
			{2, 2, 1, 6, 8},
			{3, 3, 2, 0, 0},
			{4, 4, 3, 0, 0},
			{5, 7, 4, 0, 0}, // the reader at EOF: nothing beyond it
		}},
		{"a jump re-homes a slot and the new run arms on its own third request", 1000, 64, []rd{
			{0, 0, -1, 0, 0},
			{1, 1, 0, 2, 6},
			{500, 500, 1, 0, 0}, // a seek follows the last request
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
			{10, 10, -1, 0, 0},
			{11, 11, 10, 0, 0},
			{12, 12, 11, 13, 19},
			{13, 13, 12, 0, 0},
			{10, 10, -1, 0, 0}, // B
			{14, 14, 13, 19, 25},
			{11, 11, -1, 0, 0}, // B
			{15, 15, 14, 0, 0},
			{12, 12, -1, 0, 0}, // B
			{16, 16, 15, 0, 0},
			{13, 13, -1, 0, 0}, // B
			{17, 17, 16, 25, 34},
		}},
		{"two readers at distant offsets keep a stream each", 1000, 64, []rd{
			{0, 0, -1, 0, 0},
			{600, 600, 0, 0, 0}, // B's first request looks like A seeking
			{1, 1, 0, 0, 0},     // the file owes 3 for the two first requests
			{601, 601, 600, 0, 0},
			{2, 2, 1, 3, 9}, // A's first window: twice the run
			{602, 602, 601, 603, 609},
			{3, 3, 2, 9, 20}, // A's next: four times, B's twice
			{603, 603, 602, 0, 0},
			{4, 4, 3, 0, 0},
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
		{"a file owes at most debtMax", 1000, 64, []rd{
			{100, 100, -1, 0, 0},
			{200, 200, 100, 0, 0},
			{300, 300, 200, 0, 0},
			{400, 400, 300, 0, 0}, // owes 8
			{401, 401, 400, 0, 0}, // 7
			{500, 500, 401, 0, 0}, // 8, not 9
			{501, 501, 500, 0, 0},
			{502, 502, 501, 0, 0},
			{503, 503, 502, 0, 0},
			{504, 504, 503, 0, 0},
			{505, 505, 504, 0, 0},
			{506, 506, 505, 0, 0},
			{507, 507, 506, 508, 524}, // owes 1 after 7 in-order requests
		}},
		{"an unknown file size hints nothing", 0, 64, []rd{
			{0, 0, -1, 0, 0},
			{1, 1, 0, 0, 0},
			{2, 2, 1, 0, 0},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			reads := make([]rb, len(c.reads))
			for i, r := range c.reads {
				reads[i] = rb{r.first * 100, (r.last + 1) * 100, r.prev, r.from, r.to}
			}
			playReads(t, c.eof, c.cap, reads)
		})
	}
	// Reads in bytes: inside the file's first segment, one that begins
	// where the stream's last request ended continues it too.
	for _, c := range []struct {
		name     string
		eof, cap int64
		reads    []rb
	}{
		{"a half-segment reader arms at its second request", 1000, 64, []rb{
			{0, 50, -1, 0, 0},
			{50, 100, 0, 1, 3},   // run 1 from segment 0: a first window of 2
			{100, 150, 0, 3, 10}, // run 2: window 8
			{150, 200, -1, 0, 0}, // past segment 0 a half segment trails the run
			{200, 250, 1, 0, 0},  // 7 of a window of 12 still ahead
			{250, 300, -1, 0, 0},
			{300, 350, 2, 10, 20}, // run 4: window 16
		}},
		{"beyond segment 0 a half-segment reader is counted in segments", 1000, 64, []rb{
			{1000, 1050, -1, 0, 0},
			{1050, 1100, -1, 0, 0}, // trails: contiguous reads of one record are no stream
			{1100, 1150, 10, 0, 0},
			{1150, 1200, -1, 0, 0},
			{1200, 1250, 11, 13, 19}, // the third segment arms the run, as whole segments do
		}},
		{"beyond segment 0 a run arms once it has read three segments' worth of bytes", 1000, 64, []rb{
			{1050, 1075, -1, 0, 0},
			{1075, 1100, -1, 0, 0}, // moves the run's end
			{1100, 1125, 10, 0, 0},
			{1125, 1200, -1, 0, 0},
			{1200, 1225, 11, 0, 0}, // a third request, but 175 bytes
			{1225, 1300, -1, 0, 0},
			{1300, 1325, 12, 14, 20}, // 275 bytes: a run of 3, window 6
		}},
		{"a request past the bytes a run has read does not continue it", 1000, 64, []rb{
			{1050, 1075, -1, 0, 0},
			{1100, 1125, -1, 0, 0}, // the next segment, but not where the run ended
			{1125, 1150, -1, 0, 0},
			{1200, 1300, 10, 0, 0}, // a seek
		}},
		{"a non-contiguous request inside the last segment changes nothing", 1000, 64, []rb{
			{0, 50, -1, 0, 0},
			{60, 90, -1, 0, 0}, // trailing: the stream still ends at 50
			{50, 100, 0, 1, 3},
		}},
		{"a second reader trailing inside segment 0 is still trailing", 1000, 64, []rb{
			{0, 25, -1, 0, 0},
			{0, 25, -1, 0, 0}, // B
			{25, 50, 0, 1, 3},
			{25, 50, -1, 0, 0}, // B follows its own last request, not the stream's
			{50, 75, 0, 3, 5},  // run 1, ramped ×4 once hinted: window 4
			{50, 75, -1, 0, 0}, // B
			{75, 100, 0, 0, 0}, // 4 of a window of 4 still ahead
			{100, 125, 0, 5, 10},
		}},
	} {
		t.Run(c.name, func(t *testing.T) { playReads(t, c.eof, c.cap, c.reads) })
	}
}

// rb is a read of the bytes [off, end) at 100 bytes a segment, and what
// the detector must answer, as in rd.
type rb struct {
	off, end       int64
	prev, from, to int64
}

// playReads feeds reads to an empty table and checks every answer.
func playReads(t *testing.T, eof, maxAhead int64, reads []rb) {
	t.Helper()
	var tab streamTable
	for i, r := range reads {
		prev, from, to := tab.note(r.off, r.end, 100, eof, maxAhead, 0, 0)
		if prev != r.prev || from != r.from || to != r.to {
			t.Fatalf("read %d [%d, %d): prev %d, hints [%d, %d); want prev %d, hints [%d, %d)",
				i, r.off, r.end, prev, from, to, r.prev, r.from, r.to)
		}
	}
}

// TestStreamWindowRamp follows one reader to the end of a long file: the
// stream is hinted first at its arming request, the frontier never runs
// further ahead than the ramp (twice the run; four times once a run from
// segment 0 has been hinted) or the cap, each segment is hinted once, and
// the last hint ends at EOF.
func TestStreamWindowRamp(t *testing.T) {
	const eof, maxAhead = 500, 64
	for _, c := range []struct{ start, arm, ramp int64 }{
		{start: 0, arm: streamArm - 1, ramp: 4},
		{start: 10, arm: streamArm, ramp: 2},
	} {
		var tab streamTable
		frontier, widest := int64(0), int64(0)
		for i := c.start; i < eof; i++ {
			_, from, to := tab.note(i*100, (i+1)*100, 100, eof, maxAhead, 0, 0)
			if from >= to {
				continue
			}
			run, ramp := i+1-c.start, c.ramp
			if frontier == 0 {
				if run != c.arm {
					t.Fatalf("start %d: first hint [%d, %d) at request %d, want %d", c.start, from, to, run, c.arm)
				}
				ramp = 2
			} else if from != frontier {
				t.Fatalf("start %d: read %d hinted [%d, %d), the frontier was %d", c.start, i, from, to, frontier)
			}
			ahead := to - (i + 1)
			if ahead > ramp*run || ahead > maxAhead || to > eof {
				t.Fatalf("start %d: read %d of a run of %d hinted up to %d (eof %d)", c.start, i, run, to, eof)
			}
			frontier, widest = to, max(widest, ahead)
		}
		if widest != maxAhead || frontier != eof {
			t.Fatalf("start %d: widest window %d, want the cap %d; last hint ended at %d, want EOF %d", c.start, widest, maxAhead, frontier, eof)
		}
	}
}

// windowPlay follows one reader of whole segments from segment start to
// eof, each request after a think of think while a window takes landing
// to land, and returns every hint as [from, to) by request.
func windowPlay(start, eof, maxAhead int64, think, landing time.Duration) map[int64][2]int64 {
	var tab streamTable
	hints := map[int64][2]int64{}
	for i := start; i < eof; i++ {
		if _, from, to := tab.note(i*100, (i+1)*100, 100, eof, maxAhead, think, landing); from < to {
			hints[i] = [2]int64{from, to}
		}
	}
	return hints
}

// TestStreamWindowSizedToLanding: a reader from segment 0 whose requests
// come faster than a window lands is hinted ⌈landing ÷ think⌉ segments
// (at most the cap, never past EOF) from its arming request on; a reader
// that thinks as long as a landing, or whose think or landing time is
// unknown (0), keeps the ramp of TestStreamWindowRamp, range for range.
// lead is how close the reader comes to the hinted frontier before it
// reaches EOF: a back-to-back reader is re-hinted at half the cap.
func TestStreamWindowSizedToLanding(t *testing.T) {
	const maxAhead = 64
	for _, c := range []struct {
		name           string
		think, landing time.Duration
		eof            int64
		arm            [2]int64
		lead           int64
	}{
		{"back to back: the cap on the arming request", 10 * time.Microsecond, 10 * time.Millisecond, 500, [2]int64{2, 66}, 33},
		{"back to back: to EOF on the arming request", 10 * time.Microsecond, 10 * time.Millisecond, 40, [2]int64{2, 40}, 0},
		{"a think of a tenth of the landing: 10 segments", time.Millisecond, 10 * time.Millisecond, 500, [2]int64{2, 12}, 9},
		{"a think of 10 ms: the ramp", 10 * time.Millisecond, 10 * time.Millisecond, 500, [2]int64{2, 6}, 4},
		{"think unknown: the ramp", 0, 10 * time.Millisecond, 500, [2]int64{2, 6}, 4},
		{"no landing yet: the ramp", 10 * time.Microsecond, 0, 500, [2]int64{2, 6}, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			hints := windowPlay(0, c.eof, maxAhead, c.think, c.landing)
			if got := hints[1]; got != c.arm { // a run from segment 0 arms on its second request
				t.Fatalf("arming request hinted %v, want %v (all hints %v)", got, c.arm, hints)
			}
			frontier, lead := int64(0), int64(0)
			for i := int64(0); i < c.eof; i++ {
				if h, ok := hints[i]; ok {
					frontier = h[1]
				}
				if frontier > 0 && frontier < c.eof {
					if ahead := frontier - (i + 1); lead == 0 || ahead < lead {
						lead = ahead
					}
				}
			}
			if lead != c.lead {
				t.Errorf("the reader came within %d segments of the frontier, want %d", lead, c.lead)
			}
			if c.think >= c.landing || c.think == 0 || c.landing == 0 {
				if ramp := windowPlay(0, c.eof, maxAhead, 0, 0); !reflect.DeepEqual(hints, ramp) {
					t.Errorf("hints %v, the ramp's %v", hints, ramp)
				}
			}
		})
	}
	// Unknown think or landing reproduces the ramp from anywhere in a file.
	for _, start := range []int64{0, 10} {
		ramp := windowPlay(start, 500, maxAhead, 0, 0)
		for _, tl := range [][2]time.Duration{{0, 10 * time.Millisecond}, {10 * time.Microsecond, 0}} {
			if got := windowPlay(start, 500, maxAhead, tl[0], tl[1]); !reflect.DeepEqual(got, ramp) {
				t.Errorf("start %d, think %v, landing %v: hints %v, the ramp's %v", start, tl[0], tl[1], got, ramp)
			}
		}
	}
}

// TestRandomReadsAreNotHinted is warm_read's and event_storm's geometry
// over 200 seeds: no seed hints more than 10 segments per 10 000 whole-
// segment reads, nor per 10 000 reads in records of three contiguous
// quarter-segment reads beyond a file's first segment, whether a record
// lies inside one segment or crosses into the next (counted by the
// segments the reads touched, crossing records drew a mean of 1 096 and
// at worst 1 538 a seed). Records that may
// also lie in the first segment are allowed 40: one that is a file's first
// access there reads like a whole-file reader's first requests and is
// hinted up to 4 segments, and 64 files make up to 7 such records a seed.
// Counted by byte in every segment, the records drew about 8 000.
func TestRandomReadsAreNotHinted(t *testing.T) {
	const files, segs, reads, seeds = 64, 32, 10000, 200
	names := make([]string, files)
	for i := range names {
		names[i] = "f" + string(rune('A'+i))
	}
	for _, c := range []struct {
		name      string
		per, size int64 // reads per record, bytes per read
		lo        int64 // the first segment a record may lie in
		maxHints  int
		straddle  bool // a record crosses into the next segment
	}{
		{"whole segments", 1, 100, 0, 10, false},
		{"records of three quarter segments beyond segment 0", 3, 25, 1, 10, false},
		{"records of three quarter segments", 3, 25, 0, 40, false},
		{"records of three quarter segments across a segment boundary", 3, 25, 1, 10, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			total, worst := 0, 0
			for seed := int64(1); seed <= seeds; seed++ {
				a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
				for _, name := range names {
					a.StartEpoch(name, segs*100)
				}
				rng := rand.New(rand.NewSource(seed))
				for i := int64(0); i < reads; i += c.per {
					name, span := names[rng.Intn(files)], segs-c.lo
					if c.straddle {
						span-- // the record ends in the next segment
					}
					off := (c.lo + rng.Int63n(span)) * 100
					switch {
					case c.straddle:
						// It starts in one of the segment's last per-1 slots.
						off += (100/c.size - c.per + 1 + rng.Int63n(c.per-1)) * c.size
					case c.per > 1:
						off += rng.Int63n(100/c.size-c.per+1) * c.size
					}
					for j := int64(0); j < c.per; j++ {
						handle(a, readEv(name, off+j*c.size, c.size))
					}
				}
				hinted := 0
				ups, _ := sink.snapshot()
				for _, u := range ups {
					if u.Ahead {
						hinted++
					}
				}
				if got := a.Counters().Hints; int64(hinted) != got {
					t.Fatalf("seed %d: %d updates marked Ahead, counter says %d", seed, hinted, got)
				}
				if hinted > c.maxHints {
					t.Errorf("seed %d: %d hinted updates from %d random reads, want <= %d", seed, hinted, reads, c.maxHints)
				}
				total, worst = total+hinted, max(worst, hinted)
			}
			t.Logf("hinted updates per %d random reads over %d seeds: worst %d, mean %.2f", reads, seeds, worst, float64(total)/seeds)
		})
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
				handle(a, readEv("f", i*100, 100)) // A
			}
			if i >= 3 {
				handle(a, readEv("f", (i-3)*100, 100)) // B
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
	a, sink := newAuditor(t, Config{
		Segmenter: seg.NewSegmenter(100),
		Score:     score.Params{P: 2, Unit: time.Millisecond},
		Heatmaps:  store,
	})
	a.StartEpoch("f", 2000)
	for i := int64(5); i < 8; i++ {
		handle(a, readEv("f", i*100, 100))
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
	if len(hinted) != 6 || hinted[0] != 8 || hinted[5] != 13 || a.Counters().Hints != 6 {
		t.Fatalf("hinted %v (counter %d), want segments 8..13", hinted, a.Counters().Hints)
	}
	rec, ok := a.SegmentRec(seg.ID{File: "f", Index: 13})
	if !ok || rec.Stats.K != 0 || rec.Stats.Refs < 1 {
		t.Fatalf("hinted record %+v %v, want K = 0 and a reference", rec, ok)
	}
	a.EndEpoch("f", noDrain)
	time.Sleep(30 * time.Millisecond)
	// A hinted record decays as a read one does: nothing pins it.
	for _, idx := range []int64{5, 13} {
		if sc := a.ScoreOf(seg.ID{File: "f", Index: idx}, time.Now()); sc >= 0.01 {
			t.Fatalf("segment %d scores %g 30 ms after its epoch closed, want < 0.01", idx, sc)
		}
	}
}

func TestSeqBoostZeroDisablesStreams(t *testing.T) {
	a, sink := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100), SeqBoost: -1})
	a.StartEpoch("f", 10000)
	for i := int64(0); i < 10; i++ {
		handle(a, readEv("f", i*100, 100))
	}
	ups, _ := sink.snapshot()
	if len(ups) != 10 || a.Counters().Hints != 0 || a.Counters().SegmentsSeen != 10 {
		t.Fatalf("%d updates, counters %+v: want the 10 reads and no hint", len(ups), a.Counters())
	}
	if rec, _ := a.SegmentRec(seg.ID{File: "f", Index: 4}); rec.Succ != -1 || rec.Stats.Refs != 1 {
		t.Fatalf("segment 4 learned successor %d and %d references with sequencing off", rec.Succ, rec.Stats.Refs)
	}
}

// TestGatewayReadsAreHintedLikeAgentReads: the gateway posts one read
// event per ranged GET and keeps no stream state of its own, so an HTTP
// reader is hinted by the auditor's streams like an agent reader. From a
// file's start both are hinted at their second request, whether their
// requests are whole segments (an agent's) or half segments (64 KiB GETs
// of larger segments), and both teach the same links.
func TestGatewayReadsAreHintedLikeAgentReads(t *testing.T) {
	a, _ := newAuditor(t, Config{Segmenter: seg.NewSegmenter(100)})
	for _, c := range []struct {
		file            string
		length          int64
		second, through int64 // hints after the second request, and after byte 400
	}{
		{"agent", 100, 4, 13},
		{"gw", 50, 2, 19},
	} {
		a.StartEpoch(c.file, 10000)
		before := a.Counters().Hints
		for off := int64(0); off < 400; off += c.length {
			handle(a, readEv(c.file, off, c.length))
			if got := a.Counters().Hints - before; off == c.length && got != c.second {
				t.Errorf("%s: %d hints after the second request, want %d", c.file, got, c.second)
			}
		}
		if got := a.Counters().Hints - before; got != c.through {
			t.Errorf("%s: %d hints after byte 400, want %d", c.file, got, c.through)
		}
		if rec, _ := a.SegmentRec(seg.ID{File: c.file, Index: 2}); rec.Succ != 3 {
			t.Errorf("%s: successor of 2 is %d, want 3", c.file, rec.Succ)
		}
	}
}

// FuzzStreamDetector plays arbitrary reads, negative and past EOF among
// them, with think times from none to a landing's, against a file of
// arbitrary size: whatever is hinted lies inside the file, no run hints a
// segment twice, and one event hints no more than the cap.
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
		var landing atomic.Int64
		landing.Store(int64(10 * time.Millisecond))
		a.SetLanding(&landing)
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
			ev := readEv("f", off, length)
			ev.Think = [...]time.Duration{0, time.Microsecond, time.Millisecond, 10 * time.Millisecond}[raw&3]
			handle(a, ev)
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
