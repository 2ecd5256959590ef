package auditor

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/heatmap"
	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
	"hfetch/internal/dhm"
	"hfetch/internal/events"
)

// nullSink is a BatchSink with no state to race on.
type nullSink struct{}

func (nullSink) ScoreUpdated(Update)    {}
func (nullSink) FileInvalidated(string) {}
func (nullSink) ScoreBatch([]Update)    {}

type inprocDialer struct{ net *comm.InprocNetwork }

func (d inprocDialer) Dial(node string) comm.Peer { return d.net.Dial(node) }

// fabric builds one auditor per node over stats and mapping maps shared
// across an in-process network; the stats maps log to a WAL and every
// auditor learns and keeps heatmaps, so each way a record leaves its
// shard lock is in play.
func fabric(t *testing.T, nodes int) []*Auditor {
	t.Helper()
	net := comm.NewInprocNetwork(nil)
	names := make([]string, nodes)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	hm, err := heatmap.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	auds := make([]*Auditor, nodes)
	for i, name := range names {
		wal, err := dhm.OpenWAL(filepath.Join(t.TempDir(), name+".wal"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { wal.Close() })
		mux := comm.NewMux()
		cfg := dhm.Config{Self: name, Nodes: names, Dialer: inprocDialer{net}}
		cfg.Name, cfg.WAL = "stats", wal
		stats := dhm.New(cfg, mux)
		cfg.Name, cfg.WAL = "maps", nil
		maps := dhm.New(cfg, mux)
		auds[i] = New(Config{Node: name, Segmenter: seg.NewSegmenter(64 << 10), Heatmaps: hm,
			Learner: score.NewLearned(0, 0)}, stats, maps)
		auds[i].SetSink(nullSink{})
		net.Join(name, mux)
	}
	return auds
}

// TestNothingEscapesAShardLock: eight goroutines HandleBatch overlapping
// segments of one file — records mutated in place — while others read
// them every way a record can be read: a deep snapshot, a score, a sweep
// (which deletes while the epoch is closed), a heatmap save, and the
// epoch's close and reopen, which learn from and seed the same records.
// On one node every apply is local; on two, half go over the wire and a
// get is encoded at its owner. The race detector is the oracle; at the
// end every record still adds up.
func TestNothingEscapesAShardLock(t *testing.T) {
	const (
		segs    = 64
		segSize = 64 << 10
		file    = "/data/hot.h5"
		writers = 8
		batches = 16
	)
	for _, nodes := range []int{1, 2} {
		auds := fabric(t, nodes)
		for _, a := range auds {
			a.StartEpoch(file, segs*segSize)
		}
		stop := make(chan struct{})
		var readers, wg sync.WaitGroup
		loop := func(fn func(i int)) {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						fn(i)
					}
				}
			}()
		}
		a0 := auds[0]
		loop(func(i int) {
			if rec, ok := a0.SegmentRec(seg.ID{File: file, Index: int64(i % segs)}); ok {
				rec.Stats.History = append(rec.Stats.History, time.Time{}) // a snapshot is the caller's to change
				rec.Succ = -7
			}
		})
		loop(func(i int) { a0.ScoreOf(seg.ID{File: file, Index: int64(i % segs)}, time.Now()) })
		loop(func(int) { a0.Sweep(time.Now(), 1e9) })
		loop(func(int) { a0.saveHeatmap(file, segs*segSize) })
		loop(func(int) {
			a0.EndEpoch(file)
			a0.StartEpoch(file, segs*segSize)
		})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				a := auds[w%len(auds)]
				evs := make([]events.Event, 32)
				for b := 0; b < batches; b++ {
					for i := range evs {
						// Strides that cross: every writer touches every segment,
						// in runs long enough to be hinted and to teach links.
						idx := int64((w*7 + b*len(evs) + i) % segs)
						evs[i] = events.Event{Op: events.OpRead, File: file, Offset: idx * segSize, Length: segSize, Time: time.Now()}
					}
					a.HandleBatch(evs)
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		readers.Wait()

		window := a0.Model().Window()
		seen := 0
		for i := int64(0); i < segs; i++ {
			rec, ok := a0.SegmentRec(seg.ID{File: file, Index: i})
			if !ok {
				continue
			}
			seen++
			if want := min(int(rec.Stats.K), window); len(rec.Stats.History) != want || rec.Succ < -1 || rec.Succ >= segs {
				t.Errorf("%d nodes, segment %d: K %d with %d stamps (want %d), succ %d",
					nodes, i, rec.Stats.K, len(rec.Stats.History), want, rec.Succ)
			}
		}
		if seen == 0 {
			t.Errorf("%d nodes: no record survived", nodes)
		}
	}
}

// TestWALOfInPlaceOpsReplaysToLiveRecords: the log of a statistics map
// whose records are mutated in place replays to what the map holds.
func TestWALOfInPlaceOpsReplaysToLiveRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.wal")
	wal, err := dhm.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	stats := dhm.New(dhm.Config{Name: "stats", Self: "n0", WAL: wal}, nil)
	a := New(Config{Node: "n0", Segmenter: seg.NewSegmenter(refSegSize)}, stats, dhm.New(dhm.Config{Name: "maps", Self: "n0"}, nil))
	a.StartEpoch(batchFile, refFileSize)
	for pass := 0; pass < 2; pass++ {
		evs := refTrace(pass == 1, pass)[:512]
		for b := 0; b < len(evs); b += batchLen {
			a.HandleBatch(evs[b : b+batchLen])
		}
	}
	wal.Close()
	state, err := dhm.Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(state["stats"]), stats.LocalLen(); got != want || want < 512 {
		t.Fatalf("replayed %d records, live %d", got, want)
	}
	for k, v := range state["stats"] {
		live, ok := a.SegmentRec(seg.ID(k))
		got := v.(*Rec)
		// gob drops what is zero: an empty history comes back nil either way.
		if !ok || got.Size != live.Size || got.Succ != live.Succ || got.Stats.K != live.Stats.K ||
			got.Stats.Refs != live.Stats.Refs || got.Stats.Sum != live.Stats.Sum || !got.Stats.Last.Equal(live.Stats.Last) ||
			len(got.Stats.History) != len(live.Stats.History) {
			t.Fatalf("%v: replayed %+v, live %+v", k, got, live)
		}
		for i, at := range got.Stats.History {
			if !at.Equal(live.Stats.History[i]) {
				t.Fatalf("%v: replayed history[%d] %v, live %v", k, i, at, live.Stats.History[i])
			}
		}
	}
}
