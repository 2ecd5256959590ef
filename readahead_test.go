package hfetch

import (
	"math/rand"
	"sync"
	"testing"

	"hfetch/internal/config"
)

// shippedDefaults is config.Default(), what cmd/hfetchd runs — its
// pipeline and its modeled tiers and PFS — with 64 KiB segments.
func shippedDefaults(timeScale float64) Config {
	cfg := FromConfig(config.Default())
	cfg.SegmentSize = 64 << 10
	cfg.TimeScale = timeScale
	return cfg
}

// TestServerPushGetsAheadOfAColdReader: on the shipped defaults a cold
// sequential reader finds most of a file in a tier before it asks — the
// paper's server-push — and the origin serves it in fewer, larger reads.
// Nothing is learned yet and neither engine trigger fires (64 updates,
// under a second), so the only way there is the auditor's stream
// readahead kicking the pass; with sequencing off the same reader misses
// everything. Outcomes are counted, never timed.
func TestServerPushGetsAheadOfAColdReader(t *testing.T) {
	const segs, segSize = 64, 64 << 10
	for _, c := range []struct {
		name     string
		seqBoost float64
		readers  int
		random   bool
		// minHits and maxOrigin bound the hits of the readers' segs reads
		// each and the reads the PFS device served (agent misses and mover
		// fetches alike); -1 leaves one unchecked.
		minHits, maxHits, maxOrigin int64
		noHints                     bool
	}{
		// Measured: 57..60 hits over 19..23 origin reads — the three
		// requests before the stream arms, a catch of the frontier or
		// two, and the hinted windows striped over the idle PFS streams —
		// and 118..122 hits over 18..27 for the pair.
		{name: "one sequential reader", seqBoost: 0.5, readers: 1, minHits: 54, maxHits: -1, maxOrigin: 28},
		{name: "two readers interleaved in one file", seqBoost: 0.5, readers: 2, minHits: 112, maxHits: -1, maxOrigin: 32},
		{name: "a random reader is not hinted", seqBoost: 0.5, readers: 1, random: true, maxHits: -1, maxOrigin: -1, noHints: true},
		{name: "negative control: sequencing off", seqBoost: -1, readers: 1, maxHits: segs / 4, maxOrigin: -1, noHints: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := shippedDefaults(2)
			cfg.SeqBoost = c.seqBoost
			cl, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			if err := cl.CreateFile("data/cold", segs*segSize); err != nil {
				t.Fatal(err)
			}
			client := cl.Node(0).NewClient()
			// The readers take turns, so that "interleaved" is what the
			// auditor sees whatever the scheduler does.
			var wg sync.WaitGroup
			turn := make([]chan struct{}, c.readers)
			for r := range turn {
				turn[r] = make(chan struct{}, 1)
			}
			turn[0] <- struct{}{}
			for r := 0; r < c.readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					f, err := client.Open("data/cold")
					if err != nil {
						t.Error(err)
						return
					}
					defer f.Close()
					rng := rand.New(rand.NewSource(int64(r) + 1))
					buf := make([]byte, segSize)
					for i := 0; i < segs; i++ {
						<-turn[r]
						idx := int64(i)
						if c.random {
							idx = rng.Int63n(segs)
						}
						if n, err := f.ReadAt(buf, idx*segSize); err != nil || n != segSize {
							t.Errorf("reader %d segment %d: n=%d err=%v", r, idx, n, err)
						}
						turn[(r+1)%c.readers] <- struct{}{}
					}
				}(r)
			}
			wg.Wait()
			hits, misses := client.Stats().Hits(), client.Stats().Misses()
			origin, _, _ := cl.FS().Device().Stats()
			hints := cl.Node(0).Server().Auditor().Counters().Hints
			t.Logf("%d hits, %d misses, %d origin reads, %d hints", hits, misses, origin, hints)
			if hits+misses != int64(c.readers)*segs {
				t.Fatalf("%d hits + %d misses, want %d reads", hits, misses, c.readers*segs)
			}
			if hits < c.minHits || (c.maxHits >= 0 && hits > c.maxHits) {
				t.Errorf("%d hits, want %d..%d", hits, c.minHits, c.maxHits)
			}
			if c.maxOrigin >= 0 && origin > c.maxOrigin {
				t.Errorf("the PFS served %d reads, want <= %d", origin, c.maxOrigin)
			}
			if c.noHints && hints != 0 {
				t.Errorf("%d hints", hints)
			}
		})
	}
}
