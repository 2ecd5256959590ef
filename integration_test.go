package hfetch

// Whole-system integration tests through the public API: mixed
// concurrent workloads with data verification, consistency across
// writes, heatmap persistence across cluster restarts, and a quick
// end-to-end shape check of the headline experiment.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hfetch/internal/harness/leakcheck"
)

func TestRandomizedConcurrentWorkload(t *testing.T) {
	defer leakcheck.Guard(t)()
	cfg := fastConfig(1)
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	const files = 4
	const fileSize = 32 * 4096
	for i := 0; i < files; i++ {
		cluster.CreateFile(fmt.Sprintf("rnd/f%d", i), fileSize)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			c := cluster.Node(0).NewClient()
			for op := 0; op < 150; op++ {
				name := fmt.Sprintf("rnd/f%d", rng.Intn(files))
				f, err := c.Open(name)
				if err != nil {
					errs <- err
					return
				}
				for r := 0; r < rng.Intn(5)+1; r++ {
					ln := int64(rng.Intn(3*4096) + 1)
					off := int64(rng.Intn(fileSize))
					got := make([]byte, ln)
					n, err := f.ReadAt(got, off)
					if err != nil {
						errs <- err
						f.Close()
						return
					}
					for i := 0; i < n; i++ {
						want, _ := cluster.FS().ExpectedAt(name, off+int64(i))
						if got[i] != want {
							errs <- fmt.Errorf("corruption in %s at %d", name, off+int64(i))
							f.Close()
							return
						}
					}
				}
				f.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, ok := cluster.Node(0).Server().Hierarchy().ExclusiveOK(); !ok {
		t.Fatal("exclusivity violated under randomized workload")
	}
}

func TestWriterReaderConsistency(t *testing.T) {
	defer leakcheck.Guard(t)()
	cluster, _ := NewCluster(fastConfig(1))
	defer cluster.Stop()
	const size = 16 * 4096
	cluster.CreateFile("wr", size)

	c := cluster.Node(0).NewClient()
	f, _ := c.Open("wr")
	defer f.Close()
	buf := make([]byte, 4096)
	for round := 0; round < 5; round++ {
		// Warm the cache fully.
		for off := int64(0); off < size; off += 4096 {
			f.ReadAt(buf, off)
		}
		cluster.Node(0).Flush()
		// Update the file; all prefetched data must be invalidated and
		// subsequent reads must see the new version everywhere.
		if err := f.WriteAt(int64(round)*100, 50); err != nil {
			t.Fatal(err)
		}
		cluster.Node(0).Flush()
		for off := int64(0); off < size; off += 4096 {
			n, err := f.ReadAt(buf, off)
			if err != nil || n != 4096 {
				t.Fatal(n, err)
			}
			for i := 0; i < n; i++ {
				want, _ := cluster.FS().ExpectedAt("wr", off+int64(i))
				if buf[i] != want {
					t.Fatalf("round %d: stale byte at %d after invalidation", round, off+int64(i))
				}
			}
		}
	}
}

func TestHeatmapSurvivesClusterRestart(t *testing.T) {
	defer leakcheck.Guard(t)()
	heatDir := filepath.Join(t.TempDir(), "heat")
	mk := func() *Cluster {
		cfg := fastConfig(1)
		cfg.HeatDir = heatDir
		cfg.SeqBoost = 0.5
		cluster, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cluster.CreateFile("wf/data", 32*4096)
		return cluster
	}

	// First workflow run: read, close (persists the heatmap), shut down.
	c1 := mk()
	client := c1.Node(0).NewClient()
	f, _ := client.Open("wf/data")
	buf := make([]byte, 4096)
	for off := int64(0); off < 32*4096; off += 4096 {
		f.ReadAt(buf, off)
	}
	f.Close()
	c1.Stop()

	// Second run, brand-new cluster: opening the file pre-places hot
	// segments before any read.
	c2 := mk()
	defer c2.Stop()
	client2 := c2.Node(0).NewClient()
	f2, _ := client2.Open("wf/data")
	defer f2.Close()
	c2.Node(0).Flush()
	if c2.Node(0).Server().Hierarchy().TotalUsed() == 0 {
		t.Fatal("no pre-placement from the persisted heatmap")
	}
	f2.ReadAt(buf, 0)
	if client2.Stats().Hits() == 0 {
		t.Fatalf("first read of the second run should hit: %s", client2.Stats())
	}
}

func TestOpenCloseStorm(t *testing.T) {
	defer leakcheck.Guard(t)()
	cluster, _ := NewCluster(fastConfig(1))
	defer cluster.Stop()
	cluster.CreateFile("storm", 8*4096)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cluster.Node(0).NewClient()
			buf := make([]byte, 512)
			for i := 0; i < 100; i++ {
				f, err := c.Open("storm")
				if err != nil {
					t.Error(err)
					return
				}
				f.ReadAt(buf, int64(i%8)*4096)
				f.Close()
			}
		}()
	}
	wg.Wait()
	if cluster.Node(0).Server().Auditor().EpochOpen("storm") {
		t.Fatal("watch must be gone after all closes")
	}
}

// TestHeadlineShape verifies the paper's headline claim end-to-end at a
// tiny scale: on a shared, re-read workflow, HFetch beats no-prefetching
// by a wide margin (the paper reports >50%).
func TestHeadlineShape(t *testing.T) {
	defer leakcheck.Guard(t)()
	if testing.Short() {
		t.Skip("timing-based")
	}
	run := func(prefetch bool) time.Duration {
		cfg := DefaultConfig()
		cfg.SegmentSize = 64 << 10
		cfg.EngineUpdateThreshold = 10
		cfg.SeqBoost = 0.5
		if !prefetch {
			// Degenerate hierarchy: nothing can be cached.
			cfg.Tiers = []TierSpec{{Name: "ram", Capacity: 1}}
		} else {
			cfg.Tiers = DefaultTiers(4<<20, 8<<20, 16<<20)
		}
		cluster, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Stop()
		cluster.CreateFile("h", 2<<20)
		start := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < 8; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := cluster.Node(0).NewClient()
				f, _ := c.Open("h")
				defer f.Close()
				buf := make([]byte, 64<<10)
				for pass := 0; pass < 4; pass++ {
					for off := int64(0); off < 2<<20; off += 64 << 10 {
						f.ReadAt(buf, off)
						time.Sleep(time.Millisecond)
					}
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	with := run(true)
	without := run(false)
	if float64(with) > 0.8*float64(without) {
		t.Fatalf("hfetch (%v) should be well under none (%v)", with, without)
	}
}

func TestByteLevelIntegrityAcrossDemotions(t *testing.T) {
	defer leakcheck.Guard(t)()
	// Tiny RAM forces constant demotion churn between tiers; every byte
	// must still be correct.
	cfg := fastConfig(1)
	cfg.Tiers = []TierSpec{
		{Name: "ram", Capacity: 3 * 4096},
		{Name: "nvme", Capacity: 8 * 4096},
		{Name: "bb", Capacity: 16 * 4096, Shared: true},
	}
	cluster, _ := NewCluster(cfg)
	defer cluster.Stop()
	const size = 64 * 4096
	cluster.CreateFile("churn", size)
	want := make([]byte, size)
	cluster.FS().ReadAt("churn", 0, want)

	c := cluster.Node(0).NewClient()
	f, _ := c.Open("churn")
	defer f.Close()
	rng := rand.New(rand.NewSource(99))
	got := make([]byte, 4096)
	for i := 0; i < 500; i++ {
		off := int64(rng.Intn(size-4096) / 4096 * 4096)
		n, err := f.ReadAt(got, off)
		if err != nil || n != 4096 {
			t.Fatal(n, err)
		}
		if !bytes.Equal(got, want[off:off+4096]) {
			t.Fatalf("iteration %d: corrupted read at %d", i, off)
		}
	}
	if _, ok := cluster.Node(0).Server().Hierarchy().ExclusiveOK(); !ok {
		t.Fatal("exclusivity violated under churn")
	}
}
