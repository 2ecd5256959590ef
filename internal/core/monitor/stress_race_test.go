package monitor_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfetch/internal/core/auditor"
	"hfetch/internal/core/monitor"
	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
	"hfetch/internal/dhm"
	"hfetch/internal/events"
)

// The stress test posts interleaved events for the same files from 64
// goroutines and checks the two properties the sharded pipeline claims:
//
//  1. Per-file ordering: with one daemon per ring, a file's events are
//     handled in exactly the order they entered the ring.
//  2. Score equivalence: because scoring folds per-segment and the
//     per-file event order is fixed, 8 rings produce bitwise-identical
//     final scores to one ring, whose one daemon handles everything in
//     posting order.
//
// Run it under -race: the posting goroutines, shard workers, striped
// epoch table and dhm shards all interleave here.

const (
	stressPosters  = 64
	stressFiles    = 24
	stressPerFile  = 150
	stressSegSize  = 1 << 10
	stressSegCount = 64
)

var stressBase = time.Unix(1_700_000_000, 0)

// lcg is a tiny deterministic generator so runs are reproducible without
// math/rand seeding.
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 33
}

// buildScripts returns, per file, the exact event sequence that must be
// observed in order. The i-th event of a file carries Time = base + i ms,
// so an observer can recover the sequence number from the timestamp.
// Offsets are mostly sequential (exercising the sequencing-link and
// boost paths) with deterministic jumps.
func buildScripts() [][]events.Event {
	scripts := make([][]events.Event, stressFiles)
	for f := 0; f < stressFiles; f++ {
		rng := lcg{s: uint64(f)*2654435761 + 12345}
		name := fmt.Sprintf("/data/stress-%02d.dat", f)
		evs := make([]events.Event, stressPerFile)
		idx := int64(0)
		for i := 0; i < stressPerFile; i++ {
			if i%5 == 4 { // deterministic jump
				idx = int64(rng.next() % stressSegCount)
			} else {
				idx = (idx + 1) % stressSegCount
			}
			evs[i] = events.Event{
				Op:     events.OpRead,
				File:   name,
				Offset: idx * stressSegSize,
				Length: stressSegSize,
				Time:   stressBase.Add(time.Duration(i) * time.Millisecond),
			}
		}
		scripts[f] = evs
	}
	return scripts
}

func seqOf(ev events.Event) int64 {
	return int64(ev.Time.Sub(stressBase) / time.Millisecond)
}

// orderRecorder wraps the auditor, asserting that per-file sequence
// numbers arrive strictly increasing before forwarding each batch.
type orderRecorder struct {
	aud *auditor.Auditor

	mu         sync.Mutex
	last       map[string]int64
	violations []string
}

func newOrderRecorder(aud *auditor.Auditor) *orderRecorder {
	return &orderRecorder{aud: aud, last: make(map[string]int64)}
}

func (r *orderRecorder) observe(evs []events.Event) {
	r.mu.Lock()
	for _, ev := range evs {
		if ev.Op != events.OpRead {
			continue
		}
		s := seqOf(ev)
		if prev, ok := r.last[ev.File]; ok && s <= prev {
			if len(r.violations) < 8 {
				r.violations = append(r.violations,
					fmt.Sprintf("%s: seq %d after %d", ev.File, s, prev))
			}
		}
		r.last[ev.File] = s
	}
	r.mu.Unlock()
}

func (r *orderRecorder) HandleBatch(evs []events.Event) {
	r.observe(evs)
	r.aud.HandleBatch(evs)
}

// batchCountSink counts deliveries and the updates they carry.
type batchCountSink struct {
	updates atomic.Int64
	batches atomic.Int64
}

func (s *batchCountSink) FileInvalidated(string) {}
func (s *batchCountSink) ScoreBatch(ups []auditor.Update) {
	s.batches.Add(1)
	s.updates.Add(int64(len(ups)))
}

// runStress drives the scripts through a monitor configured by mcfg and
// returns the final per-segment scores at a fixed evaluation time. When
// rec is non-nil it wraps the auditor to observe arrival order.
func runStress(t *testing.T, mcfg monitor.Config, record bool) (map[seg.ID]float64, *orderRecorder, *batchCountSink) {
	t.Helper()
	stats := dhm.New(dhm.Config{Name: "stress-stats", Self: "n0"}, nil)
	maps := dhm.New(dhm.Config{Name: "stress-maps", Self: "n0"}, nil)
	aud := auditor.New(auditor.Config{
		Node:      "n0",
		Segmenter: seg.NewSegmenter(stressSegSize),
		Score:     score.Params{P: 2, Unit: time.Second},
		SeqBoost:  0.5,
	}, stats, maps)
	sink := &batchCountSink{}
	aud.SetSink(sink)

	var handler monitor.Handler = aud
	var rec *orderRecorder
	if record {
		rec = newOrderRecorder(aud)
		handler = rec
	}
	mon := monitor.New(mcfg, handler)
	mon.Start()

	scripts := buildScripts()
	type fileScript struct {
		mu   sync.Mutex
		evs  []events.Event
		next int
	}
	fs := make([]*fileScript, stressFiles)
	for i, evs := range scripts {
		aud.StartEpoch(evs[0].File, stressSegCount*stressSegSize)
		fs[i] = &fileScript{evs: evs}
	}

	var wg sync.WaitGroup
	for g := 0; g < stressPosters; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := lcg{s: uint64(id)*40503 + 7}
			for {
				start := int(rng.next() % stressFiles)
				posted := false
				for i := 0; i < stressFiles; i++ {
					s := fs[(start+i)%stressFiles]
					s.mu.Lock()
					if s.next < len(s.evs) {
						ev := s.evs[s.next]
						s.next++
						// Post while holding the script lock so ring
						// order matches script order for this file.
						mon.Post(ev)
						s.mu.Unlock()
						posted = true
						break
					}
					s.mu.Unlock()
				}
				if !posted {
					return // every script exhausted
				}
			}
		}(g)
	}
	wg.Wait()
	mon.Stop() // closes the rings and waits for the workers to drain

	const total = stressFiles * stressPerFile
	if got := mon.Consumed(); got != total {
		t.Fatalf("consumed %d events, posted %d", got, total)
	}

	eval := stressBase.Add(stressPerFile*time.Millisecond + 2*time.Second)
	scores := make(map[seg.ID]float64)
	for _, evs := range scripts {
		file := evs[0].File
		for i := int64(0); i < stressSegCount; i++ {
			id := seg.ID{File: file, Index: i}
			if sc := aud.ScoreOf(id, eval); sc != 0 {
				scores[id] = sc
			}
		}
	}
	return scores, rec, sink
}

func TestShardedStressOrderingAndScoreEquivalence(t *testing.T) {
	// Sharded pipeline: 8 rings, one worker each, 64 concurrent posters.
	shardedScores, rec, sink := runStress(t, monitor.Config{
		Shards: 8, QueueCap: 4096,
	}, true)
	if len(rec.violations) > 0 {
		t.Fatalf("per-file ordering violated: %v", rec.violations)
	}
	if sink.batches.Load() == 0 {
		t.Fatal("batch sink never received a ScoreBatch delivery")
	}
	if sink.updates.Load() == 0 {
		t.Fatal("no score updates delivered")
	}
	if len(shardedScores) == 0 {
		t.Fatal("sharded run produced no scores")
	}

	// Reference: one ring with its one daemon, which handles everything in
	// posting order. Same scripts, same timestamps.
	singleScores, _, _ := runStress(t, monitor.Config{
		Shards: 1, QueueCap: 4096,
	}, false)

	if len(shardedScores) != len(singleScores) {
		t.Fatalf("segment count differs: 8 rings %d, 1 ring %d",
			len(shardedScores), len(singleScores))
	}
	for id, want := range singleScores {
		got, ok := shardedScores[id]
		if !ok {
			t.Fatalf("segment %v scored on 1 ring but not on 8", id)
		}
		if got != want { // bitwise: identical per-file fold order
			t.Fatalf("segment %v: score %v on 8 rings != %v on 1", id, got, want)
		}
	}
}

// TestShardedStressDropPolicy runs the same interleaved load against
// tiny rings with the drop policy and checks accounting stays coherent
// under contention: posted + dropped == attempts, consumed == posted.
func TestShardedStressDropPolicy(t *testing.T) {
	stats := dhm.New(dhm.Config{Name: "drop-stats", Self: "n0"}, nil)
	maps := dhm.New(dhm.Config{Name: "drop-maps", Self: "n0"}, nil)
	aud := auditor.New(auditor.Config{
		Node:      "n0",
		Segmenter: seg.NewSegmenter(stressSegSize),
		Score:     score.Params{P: 2, Unit: time.Second},
	}, stats, maps)
	mon := monitor.New(monitor.Config{
		Shards: 4, QueueCap: 16, Drop: true,
	}, aud)
	mon.Start()

	const attempts = 8000
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := lcg{s: uint64(id) + 99}
			for i := 0; i < attempts/16; i++ {
				ev := events.Event{
					Op:     events.OpRead,
					File:   fmt.Sprintf("/data/drop-%d.dat", rng.next()%8),
					Offset: int64(rng.next()%stressSegCount) * stressSegSize,
					Length: stressSegSize,
					Time:   stressBase.Add(time.Duration(i) * time.Microsecond),
				}
				if mon.Post(ev) {
					accepted.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	mon.Stop()

	posted, dropped := mon.QueueStats()
	if posted != accepted.Load() {
		t.Fatalf("posted %d != accepted %d", posted, accepted.Load())
	}
	if posted+dropped != attempts {
		t.Fatalf("posted %d + dropped %d != attempts %d", posted, dropped, attempts)
	}
	if got := mon.Consumed(); got != posted {
		t.Fatalf("consumed %d != posted %d", got, posted)
	}
}
