package auditor

import (
	"math"
	"math/rand"
	"reflect"
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
// segmenter and the stream detector.
type refAuditor struct {
	cfg      Config
	model    *score.Model
	recs     map[seg.ID]*Rec
	epochs   map[string]*epochState
	maxAhead int64
	hints    int64
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
		if r.cfg.SeqBoost > 0 && ev.Via != events.ViaHint {
			maxAhead := r.maxAhead
			if ev.Via != events.ViaAgent {
				maxAhead = 0
			}
			prev, hintFrom, hintTo = es.streams.note(first, last, sg.Count(fileSize), maxAhead)
		}
	}
	ts := ev.Time
	boost := func(id seg.ID, ahead bool) {
		rec := r.ref(id, ts, r.cfg.SeqBoost)
		size := rec.Size
		if size == 0 {
			if size = sg.RangeOf(id, fileSize).Len; size <= 0 {
				size = sg.Size()
			}
		}
		ups = append(ups, Update{ID: id, Score: r.model.Score(&rec.Stats, ts), Size: size, Origin: ev.Origin, Ahead: ahead})
	}
	for idx := first; idx <= last; idx++ {
		id := seg.ID{File: ev.File, Index: idx}
		segSize := sg.RangeOf(id, fileSize).Len
		if segSize <= 0 {
			segSize = sg.Size()
		}
		rec := r.access(id, ts, segSize)
		sc := r.model.Score(&rec.Stats, ts)
		if l := r.cfg.Learner; l != nil {
			if st := &rec.Stats; st.K >= 2 && len(st.History) >= 2 {
				l.Observe(st.K-1, st.History[len(st.History)-2], st.Refs, ts, true)
			}
			sc = score.Blend(sc, l.Predict(rec.Stats.K, rec.Stats.Last, rec.Stats.Refs, ts))
		}
		up := Update{ID: id, Score: sc, Size: rec.Size, Origin: ev.Origin}
		if idx == first {
			up.Trace = ev.Trace
		}
		ups = append(ups, up)
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

func (s *copySink) ScoreUpdated(u Update)   { s.ups = append(s.ups, u) }
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
// reads vary in length (half a segment to three), origin and trace id,
// and every fifth lands in a hot set of 16 segments;
// sequential ones are whole segments in order, the shape the stream
// detector hints ahead of.
func refTrace(sequential bool, pass int) []events.Event {
	rng := rand.New(rand.NewSource(int64(7 + pass)))
	evs := make([]events.Event, batchSegs)
	for i := range evs {
		n := pass*batchSegs + i
		ev := events.Event{Op: events.OpRead, File: batchFile, Trace: uint64(n + 1),
			Time:   time.Unix(1700000000, 0).Add(time.Duration(n) * 700 * time.Microsecond),
			Origin: [...]string{"", "", "n1"}[n%3]}
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
// sequence — score bits, size, order, origin, trace, Ahead — that the
// copy-on-write reference emits one event at a time, and leaves the same
// record for every segment. Each trace is played twice, so both the cold
// pass (records created, links learned, a sequential reader hinted) and
// the warm one (successors boosted, full histories shifting) are
// compared.
func TestInPlaceEventPathEqualsCopyOnWriteReference(t *testing.T) {
	for _, c := range []struct {
		name       string
		sequential bool
		learner    bool
	}{
		{"random", false, false},
		{"sequential", true, false},
		{"random with the learner", false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Node: "n0", Segmenter: seg.NewSegmenter(refSegSize), SeqBoost: 0.5}
			refCfg := cfg
			if c.learner {
				cfg.Learner, refCfg.Learner = score.NewLearned(0, 0), score.NewLearned(0, 0)
			}
			a := New(cfg, dhm.New(dhm.Config{Name: "stats", Self: "n0"}, nil), dhm.New(dhm.Config{Name: "maps", Self: "n0"}, nil))
			sink := &copySink{}
			a.SetSink(sink)
			a.StartEpoch(batchFile, refFileSize)
			ref := newRefAuditor(refCfg)
			ref.epochs[batchFile] = &epochState{opens: 1, size: refFileSize}

			for pass := 0; pass < 2; pass++ {
				evs := refTrace(c.sequential, pass)
				var want []Update
				for _, ev := range evs {
					want = append(want, ref.handle(ev)...)
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
				ahead := 0
				for _, u := range want {
					if u.Ahead {
						ahead++
					}
				}
				t.Logf("pass %d: %d updates, %d ahead of a stream", pass, len(want), ahead)
				// The warm sequential pass trails the stream of the cold one:
				// boosts of learned successors, no new hints.
				if (c.sequential && pass == 0) != (ahead > 0) {
					t.Errorf("pass %d: %d hinted updates", pass, ahead)
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
			if !c.sequential && longest <= a.Model().Window() {
				t.Errorf("no segment was read more than %d times: no history shifted", longest)
			}
			ctr := a.Counters()
			if ctr.Hints != ref.hints || ctr.SegmentsSeen != int64(len(ref.recs)) {
				t.Errorf("hints %d and segments %d, reference %d and %d", ctr.Hints, ctr.SegmentsSeen, ref.hints, len(ref.recs))
			}
			if c.learner {
				if got, want := cfg.Learner.Weights(), refCfg.Learner.Weights(); got != want {
					t.Errorf("learner weights %v, reference %v", got, want)
				}
			}
		})
	}
}
