package auditor

import (
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
	"hfetch/internal/dhm"
	"hfetch/internal/events"
)

// refAuditor is the event path as it was while stored records were
// copy-on-write, kept as the oracle for the in-place one: every mutation
// copies the record it changes (copyRec), the caller scores the copy it
// got back, a link is learned with a read of the predecessor followed by
// two mutations, and events are handled one at a time. It shares with the
// auditor only what this change did not touch: the score model, the
// segmenter and the stream detector, whose window it sizes by each
// event's Think against landing as the auditor sizes it by SetLanding's.
// A stream hint carries the higher of its Eq. (1) score and its read's
// highest segment score; notes keeps, for every update handle returns,
// what that score was made of.
type refAuditor struct {
	cfg      Config
	model    *score.Model
	recs     map[seg.ID]*Rec
	epochs   map[string]*epochState
	maxAhead int64
	landing  time.Duration
	hints    int64
	notes    []refNote
}

// refNote is how the reference scored one update: its Eq. (1) score, the
// highest score of the read behind it, and whether it boosts a learned
// successor.
type refNote struct {
	eq1, top  float64
	successor bool
}

func newRefAuditor(cfg Config) *refAuditor {
	return &refAuditor{
		cfg:      cfg,
		model:    score.NewModel(cfg.Score),
		recs:     make(map[seg.ID]*Rec),
		epochs:   make(map[string]*epochState),
		maxAhead: max(1, min(streamMaxSegs, streamMaxBytes/cfg.Segmenter.Size())),
	}
}

func (r *refAuditor) copyRec(id seg.ID) *Rec {
	old := r.recs[id]
	if old == nil {
		return &Rec{Succ: -1}
	}
	nr := *old
	return &nr
}

func (r *refAuditor) access(id seg.ID, ts time.Time, size int64) *Rec {
	nr := r.copyRec(id)
	r.model.OnAccess(&nr.Stats, ts)
	if size > 0 {
		nr.Size = size
	}
	r.recs[id] = nr
	return nr
}

func (r *refAuditor) ref(id seg.ID, ts time.Time, w float64) *Rec {
	nr := r.copyRec(id)
	r.model.OnRef(&nr.Stats, ts, w)
	r.recs[id] = nr
	return nr
}

func (r *refAuditor) link(id seg.ID, succ int64) {
	nr := r.copyRec(id)
	nr.Succ = succ
	r.recs[id] = nr
}

func (r *refAuditor) addRef(id seg.ID) {
	nr := r.copyRec(id)
	r.model.AddRef(&nr.Stats)
	r.recs[id] = nr
}

func (r *refAuditor) handle(ev events.Event) (ups []Update) {
	if ev.Op != events.OpRead || ev.Length <= 0 || ev.Offset < 0 {
		return nil
	}
	sg := r.cfg.Segmenter
	first, last := sg.IndexOf(ev.Offset), sg.IndexOf(ev.Offset+ev.Length-1)
	var prev, hintFrom, hintTo int64 = -1, 0, 0
	var fileSize int64
	if es := r.epochs[ev.File]; es != nil {
		fileSize = es.size
		if r.cfg.SeqBoost > 0 {
			prev, hintFrom, hintTo = es.streams.note(ev.Offset, ev.Offset+ev.Length, sg.Size(), sg.Count(fileSize), r.maxAhead, ev.Think, r.landing)
		}
	}
	ts := ev.Time
	var top float64
	boost := func(id seg.ID, ahead bool) {
		rec := r.ref(id, ts, r.cfg.SeqBoost)
		size := rec.Size
		if size == 0 {
			if size = sg.RangeOf(id, fileSize).Len; size <= 0 {
				size = sg.Size()
			}
		}
		sc := r.model.Score(&rec.Stats, ts)
		r.notes = append(r.notes, refNote{eq1: sc, top: top, successor: !ahead})
		if ahead {
			sc = max(sc, top)
		}
		ups = append(ups, Update{ID: id, Score: sc, Size: size, Ahead: ahead})
	}
	for idx := first; idx <= last; idx++ {
		id := seg.ID{File: ev.File, Index: idx}
		segSize := sg.RangeOf(id, fileSize).Len
		if segSize <= 0 {
			segSize = sg.Size()
		}
		rec := r.access(id, ts, segSize)
		sc := r.model.Score(&rec.Stats, ts)
		up := Update{ID: id, Score: sc, Size: rec.Size}
		if idx == first {
			up.Trace = ev.Trace
		}
		ups = append(ups, up)
		top = max(top, sc)
		r.notes = append(r.notes, refNote{eq1: sc, top: top})
		if rec.Succ >= 0 && rec.Succ != idx && r.cfg.SeqBoost > 0 {
			boost(seg.ID{File: ev.File, Index: rec.Succ}, false)
		}
	}
	if prev >= 0 && prev != first {
		prevID := seg.ID{File: ev.File, Index: prev}
		if p := r.recs[prevID]; p != nil && p.Succ != first {
			r.link(prevID, first)
			r.addRef(seg.ID{File: ev.File, Index: first})
		}
	}
	if hintFrom < hintTo {
		r.hints += hintTo - hintFrom
		for idx := hintFrom; idx < hintTo; idx++ {
			boost(seg.ID{File: ev.File, Index: idx}, true)
		}
	}
	return ups
}

// copySink keeps a copy of every delivery, as the contract asks.
type copySink struct{ ups []Update }

func (s *copySink) FileInvalidated(string)  {}
func (s *copySink) ScoreBatch(ups []Update) { s.ups = append(s.ups, ups...) }

func (s *copySink) take() []Update {
	ups := s.ups
	s.ups = nil
	return ups
}

// sameUpdate compares scores by their bits: equal, not close.
func sameUpdate(a, b Update) bool {
	return a == b && math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

const refSegSize = 64 << 10

// refFileSize clips the file's last segment.
const refFileSize = batchSegs*refSegSize - refSegSize/3

// refTrace is one fixed trace of 4096 read events over batchFile. Random
// reads vary in length (half a segment to three) and trace id,
// and every fifth lands in a hot set of 16 segments;
// sequential ones are whole segments in order, the shape the stream
// detector hints ahead of.
func refTrace(sequential bool, pass int) []events.Event {
	rng := rand.New(rand.NewSource(int64(7 + pass)))
	evs := make([]events.Event, batchSegs)
	for i := range evs {
		n := pass*batchSegs + i
		ev := events.Event{Op: events.OpRead, File: batchFile, Trace: uint64(n + 1),
			Time: time.Unix(1700000000, 0).Add(time.Duration(n) * 700 * time.Microsecond)}
		if sequential {
			ev.Offset, ev.Length = int64(i)*refSegSize, refSegSize
		} else {
			idx := rng.Int63n(batchSegs)
			if n%5 == 0 {
				idx %= 16 // a hot set: histories that fill the window and shift
			}
			ev.Offset = idx*refSegSize + rng.Int63n(3)*refSegSize/4
			ev.Length = [...]int64{refSegSize, refSegSize, refSegSize / 2, 3 * refSegSize}[n%4]
		}
		ev.Length = min(ev.Length, refFileSize-ev.Offset)
		evs[i] = ev
	}
	return evs
}

// TestInPlaceEventPathEqualsCopyOnWriteReference: HandleBatch over ops
// that mutate in place and answer under the lock emits the Update
// sequence — score bits, size, order, trace, Ahead — that the
// copy-on-write reference emits one event at a time, and leaves the same
// record for every segment. Each case plays two passes, so both the cold
// pass (records created, links learned, a sequential reader hinted) and
// the warm one (successors boosted, full histories shifting) are
// compared. The last case hints a sequential reader over segments a random
// pass has scored: a hint ranks with its reader, a successor boost keeps
// its Eq. (1) score however hot the read behind it, and the stored records
// (compared with the reference's, which never see a lifted score) are
// Eq. (1)'s alone. Both size stream windows against a landing time of
// 10 ms: events without a Think keep the ramp's first window of 4, and a
// reader that thinks 50 µs is hinted the cap on its arming request.
func TestInPlaceEventPathEqualsCopyOnWriteReference(t *testing.T) {
	const landing = 10 * time.Millisecond
	for _, c := range []struct {
		name       string
		sequential [2]bool // per pass
		think      time.Duration
	}{
		{"random", [2]bool{false, false}, 0},
		{"sequential", [2]bool{true, true}, 0},
		{"random, then sequential: hints lifted, records and successors not", [2]bool{false, true}, 0},
		{"sequential, a reader that outruns the landing", [2]bool{true, true}, 50 * time.Microsecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Node: "n0", Segmenter: seg.NewSegmenter(refSegSize), SeqBoost: 0.5}
			refCfg := cfg
			a := New(cfg, dhm.New(dhm.Config{Name: "stats", Self: "n0"}, nil), dhm.New(dhm.Config{Name: "maps", Self: "n0"}, nil))
			sink := &copySink{}
			a.SetSink(sink)
			var ns atomic.Int64
			ns.Store(int64(landing))
			a.SetLanding(&ns)
			a.StartEpoch(batchFile, refFileSize)
			ref := newRefAuditor(refCfg)
			ref.landing = landing
			ref.epochs[batchFile] = &epochState{opens: 1, size: refFileSize}

			for pass := 0; pass < 2; pass++ {
				evs := refTrace(c.sequential[pass], pass)
				var want []Update
				ref.notes = ref.notes[:0]
				arming := 0 // hints of the second request
				for i := range evs {
					evs[i].Think = c.think
					ups := ref.handle(evs[i])
					for _, u := range ups {
						if i == 1 && u.Ahead {
							arming++
						}
					}
					want = append(want, ups...)
				}
				if cold := c.sequential[pass] && pass == 0; cold {
					if w := map[bool]int{false: 4, true: int(ref.maxAhead)}[c.think > 0]; arming != w {
						t.Fatalf("the arming request hinted %d segments, want %d", arming, w)
					}
				}
				for b := 0; b < len(evs); b += batchLen {
					a.HandleBatch(evs[b : b+batchLen])
				}
				got := sink.take()
				if len(got) != len(want) {
					t.Fatalf("pass %d: %d updates, reference %d", pass, len(got), len(want))
				}
				for i := range want {
					if !sameUpdate(got[i], want[i]) {
						t.Fatalf("pass %d, update %d: got %+v (score bits %x), reference %+v (%x)",
							pass, i, got[i], math.Float64bits(got[i].Score), want[i], math.Float64bits(want[i].Score))
					}
				}
				ahead, lifted, hot := 0, 0, 0
				for i, u := range want {
					n := ref.notes[i]
					switch {
					case u.Ahead:
						ahead++
						if u.Score != max(n.eq1, n.top) {
							t.Fatalf("pass %d, update %d: hint scored %v, want max(%v, %v)", pass, i, u.Score, n.eq1, n.top)
						}
						if u.Score > n.eq1 {
							lifted++
						}
					case n.successor:
						if u.Score != n.eq1 {
							t.Fatalf("pass %d, update %d: successor boost scored %v, Eq. (1) says %v", pass, i, u.Score, n.eq1)
						}
						if n.eq1 < n.top {
							hot++ // a hint of this read's rank would have been lifted
						}
					}
				}
				t.Logf("pass %d: %d updates, %d ahead of a stream (%d lifted), %d successor boosts below their read",
					pass, len(want), ahead, lifted, hot)
				// A warm sequential pass trails the stream of the pass before:
				// boosts of learned successors, no new hints.
				if cold := c.sequential[pass] && (pass == 0 || !c.sequential[pass-1]); cold != (ahead > 0) {
					t.Errorf("pass %d: %d hinted updates", pass, ahead)
				}
				if c.sequential == [2]bool{false, true} && pass == 1 && (lifted == 0 || lifted == ahead || hot == 0) {
					t.Errorf("pass 1: %d of %d hints lifted, %d successor boosts below their read: want some of each, and hints the lift leaves alone",
						lifted, ahead, hot)
				}
			}
			longest := 0
			for i := int64(0); i < batchSegs; i++ {
				id := seg.ID{File: batchFile, Index: i}
				got, _ := a.SegmentRec(id)
				if want := ref.recs[id]; !reflect.DeepEqual(got, want) {
					t.Fatalf("segment %d: record %+v, reference %+v", i, got, want)
				} else if want != nil {
					longest = max(longest, int(want.Stats.K))
				}
			}
			if !c.sequential[1] && longest <= score.Window {
				t.Errorf("no segment was read more than %d times: no history shifted", longest)
			}
			ctr := a.Counters()
			if ctr.Hints != ref.hints || ctr.SegmentsSeen != int64(len(ref.recs)) {
				t.Errorf("hints %d and segments %d, reference %d and %d", ctr.Hints, ctr.SegmentsSeen, ref.hints, len(ref.recs))
			}
		})
	}
}
