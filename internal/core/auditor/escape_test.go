package auditor

import (
	"math"
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

// nullSink is a Sink with no state to race on.
type nullSink struct{}

func (nullSink) FileInvalidated(string) {}
func (nullSink) ScoreBatch([]Update)    {}

// inprocPeers is one node's comm.Peers over the in-process fabric: one
// connection per name, kept until dropped, as cluster.Membership keeps
// its own.
type inprocPeers struct {
	net   *comm.InprocNetwork
	mu    sync.Mutex
	peers map[string]comm.Peer
}

func (s *inprocPeers) Peer(node string) (comm.Peer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.peers[node]
	if !ok {
		p = s.net.Dial(node)
		s.peers[node] = p
	}
	return p, nil
}

func (s *inprocPeers) DropPeer(node string) {
	s.mu.Lock()
	delete(s.peers, node)
	s.mu.Unlock()
}

// fabric builds one auditor per node over stats and mapping maps shared
// across an in-process network; the stats maps log to a WAL and every
// auditor keeps heatmaps, so each way a record leaves its shard lock is
// in play.
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
		cfg := dhm.Config{Self: name, Nodes: names, Peers: &inprocPeers{net: net, peers: make(map[string]comm.Peer)}}
		cfg.Name, cfg.WAL = "stats", wal
		stats := dhm.New(cfg, mux)
		cfg.Name, cfg.WAL = "maps", nil
		maps := dhm.New(cfg, mux)
		auds[i] = New(Config{Node: name, Segmenter: seg.NewSegmenter(64 << 10), Heatmaps: hm}, stats, maps)
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
				rec.Stats.Stamps[0] = -1 // a snapshot is the caller's to change
				rec.Succ = -7
			}
		})
		loop(func(i int) { a0.ScoreOf(seg.ID{File: file, Index: int64(i % segs)}, time.Now()) })
		loop(func(int) { a0.saveHeatmap(file, segs*segSize) })
		loop(func(int) {
			a0.EndEpoch(file, noDrain)
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

		seen := 0
		for i := int64(0); i < segs; i++ {
			rec, ok := a0.SegmentRec(seg.ID{File: file, Index: i})
			if !ok {
				continue
			}
			seen++
			if want := min(int(rec.Stats.K), score.Window); rec.Stats.N != want || rec.Succ < -1 || rec.Succ >= segs {
				t.Errorf("%d nodes, segment %d: K %d with %d stamps (want %d), succ %d",
					nodes, i, rec.Stats.K, rec.Stats.N, want, rec.Succ)
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
		if !ok || got.Size != live.Size || got.Succ != live.Succ || got.Stats.K != live.Stats.K ||
			got.Stats.Refs != live.Stats.Refs || got.Stats.Sum != live.Stats.Sum || !got.Stats.Last.Equal(live.Stats.Last) ||
			got.Stats.N != live.Stats.N || got.Stats.Stamps != live.Stats.Stamps {
			t.Fatalf("%v: replayed %+v, live %+v", k, got, live)
		}
	}
}

// v6Trace is the trace behind testdata/stats-v6.wal: 40 sequential
// passes over the head of a 32-segment file, each 8 to 23 segments long,
// so that records hold full windows, short ones and none (segments only
// hinted).
func v6Trace() []events.Event {
	var evs []events.Event
	base := time.Unix(1700000000, 0)
	for p := 0; p < 40; p++ {
		for i := 0; i < 8+p%16; i++ {
			evs = append(evs, events.Event{Op: events.OpRead, File: batchFile, Offset: int64(i) * refSegSize, Length: refSegSize,
				Time: base.Add(time.Duration(len(evs)) * 700 * time.Microsecond)})
		}
	}
	return evs
}

// TestStatsV6LogReplays: testdata/stats-v6.wal holds the records v6Trace
// leaves, one put each, as logged while a record's access times were a
// []time.Time named History. gob skips that field, so each record
// replays with the counts, sum, recency, size and successor this build
// makes of the same trace, and no access times; a link added to it keeps
// its sum instead of rebuilding it from none.
func TestStatsV6LogReplays(t *testing.T) {
	const segs = 32
	state, err := dhm.Replay(filepath.Join("testdata", "stats-v6.wal"))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := newAuditor(t, Config{Segmenter: seg.NewSegmenter(refSegSize)})
	a.StartEpoch(batchFile, segs*refSegSize)
	evs := v6Trace()
	for b := 0; b < len(evs); b += 64 {
		a.HandleBatch(evs[b:min(b+64, len(evs))])
	}
	if len(state["stats"]) != segs {
		t.Fatalf("replayed %d records, want %d", len(state["stats"]), segs)
	}
	full := 0
	for k, v := range state["stats"] {
		old := v.(*Rec)
		live, ok := a.SegmentRec(seg.ID(k))
		if !ok || old.Size != live.Size || old.Succ != live.Succ || old.Stats.K != live.Stats.K || old.Stats.Refs != live.Stats.Refs ||
			math.Float64bits(old.Stats.Sum) != math.Float64bits(live.Stats.Sum) || !old.Stats.Last.Equal(live.Stats.Last) || old.Stats.N != 0 {
			t.Fatalf("%v: replayed %+v, this build makes %+v", k, old, live)
		}
		if live.Stats.N == score.Window {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no replayed record had a full window")
	}

	stats := dhm.New(dhm.Config{Name: "stats", Self: "n0"}, nil)
	stats.Restore(state)
	b := New(Config{Node: "n0", Segmenter: seg.NewSegmenter(refSegSize)}, stats, dhm.New(dhm.Config{Name: "maps", Self: "n0"}, nil))
	id := seg.ID{File: batchFile, Index: 5}
	old, _ := b.SegmentRec(id)
	b.learnLink(batchFile, 30, 5, new(cycle))
	if rec, _ := b.SegmentRec(id); rec.Stats.Refs != old.Stats.Refs+1 || rec.Stats.Sum != old.Stats.Sum || rec.Stats.Sum == 0 {
		t.Fatalf("a link to a replayed record made it refs %d sum %v, from %d and %v", rec.Stats.Refs, rec.Stats.Sum, old.Stats.Refs, old.Stats.Sum)
	}
}
