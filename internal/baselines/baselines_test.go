package baselines

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"hfetch/internal/core/placement"
	"hfetch/internal/core/seg"
	"hfetch/internal/core/server"
	"hfetch/internal/devsim"
	"hfetch/internal/harness/leakcheck"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

const testSeg = 1024

func testFS(t *testing.T, size int64) *pfs.FS {
	t.Helper()
	fs := pfs.New(nil)
	fs.Create("f", size)
	return fs
}

// verifyIntegrity reads the whole file through the handle and compares
// with the PFS oracle.
func verifyIntegrity(t *testing.T, fs *pfs.FS, h Handle, file string, size int64) {
	t.Helper()
	want := make([]byte, size)
	fs.ReadAt(file, 0, want)
	got := make([]byte, size)
	for off := int64(0); off < size; off += testSeg {
		end := off + testSeg
		if end > size {
			end = size
		}
		if _, err := h.ReadAt(got[off:end], off); err != nil {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("handle served corrupted data")
	}
}

// drainPrefetch waits briefly so async prefetch workers settle.
func drainPrefetch() { time.Sleep(20 * time.Millisecond) }

func TestNoneAllMisses(t *testing.T) {
	fs := testFS(t, 16*testSeg)
	sys := NewNone(fs)
	defer sys.Stop()
	h, err := sys.Open("a", "f")
	if err != nil {
		t.Fatal(err)
	}
	verifyIntegrity(t, fs, h, "f", 16*testSeg)
	if sys.Stats().Hits() != 0 || sys.Stats().Misses() == 0 {
		t.Fatalf("none must only miss: %s", sys.Stats())
	}
	if _, err := sys.Open("a", "ghost"); err == nil {
		t.Fatal("missing file must fail")
	}
	h.Close()
}

func TestSerialPrefetcherHitsOnSequential(t *testing.T) {
	fs := testFS(t, 64*testSeg)
	sys := NewPrefetcher(fs, PrefetcherConfig{
		CacheBytes: 64 * testSeg, SegmentSize: testSeg, Depth: 8, Workers: 1,
	})
	defer sys.Stop()
	if sys.Name() != "serial" {
		t.Fatalf("name = %q", sys.Name())
	}
	h, _ := sys.Open("a", "f")
	buf := make([]byte, testSeg)
	for off := int64(0); off < 64*testSeg; off += testSeg {
		h.ReadAt(buf, off)
		drainPrefetch()
	}
	if sys.Stats().HitRatio() < 0.5 {
		t.Fatalf("sequential readahead hit ratio = %.2f, want > 0.5", sys.Stats().HitRatio())
	}
	h.Close()
}

func TestParallelPrefetcherNameAndHits(t *testing.T) {
	fs := testFS(t, 64*testSeg)
	sys := NewPrefetcher(fs, PrefetcherConfig{
		CacheBytes: 64 * testSeg, SegmentSize: testSeg, Depth: 8, Workers: 4,
	})
	defer sys.Stop()
	if sys.Name() != "parallel" {
		t.Fatalf("name = %q", sys.Name())
	}
	h, _ := sys.Open("a", "f")
	verifyIntegrity(t, fs, h, "f", 64*testSeg)
	h.Close()
}

func TestPrefetcherCacheBounded(t *testing.T) {
	fs := testFS(t, 256*testSeg)
	sys := NewPrefetcher(fs, PrefetcherConfig{
		CacheBytes: 8 * testSeg, SegmentSize: testSeg, Depth: 8, Workers: 2,
	})
	defer sys.Stop()
	h, _ := sys.Open("a", "f")
	buf := make([]byte, testSeg)
	for off := int64(0); off < 256*testSeg; off += testSeg {
		h.ReadAt(buf, off)
	}
	drainPrefetch()
	used, _, _ := sys.Cache()
	if used > 8*testSeg {
		t.Fatalf("cache over capacity: %d", used)
	}
	h.Close()
}

func TestInMemOptimalPrivatePartitions(t *testing.T) {
	fs := testFS(t, 64*testSeg)
	sys := NewInMemOptimal(fs, InMemConfig{
		CacheBytes: 64 * testSeg, SegmentSize: testSeg, Depth: 8, Processes: 2,
	})
	defer sys.Stop()
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := sys.Open("a", "f")
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Close()
			buf := make([]byte, testSeg)
			for off := int64(0); off < 64*testSeg; off += testSeg {
				h.ReadAt(buf, off)
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if sys.Stats().HitRatio() < 0.5 {
		t.Fatalf("optimal hit ratio = %.2f, want > 0.5", sys.Stats().HitRatio())
	}
}

func TestInMemNaiveIntegrityUnderCompetition(t *testing.T) {
	fs := testFS(t, 64*testSeg)
	sys := NewInMemNaive(fs, InMemConfig{
		CacheBytes: 8 * testSeg, SegmentSize: testSeg, Depth: 4, Processes: 4,
	})
	want := make([]byte, 64*testSeg)
	fs.ReadAt("f", 0, want)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, _ := sys.Open("a", "f")
			defer h.Close()
			got := make([]byte, testSeg)
			for off := int64(0); off < 64*testSeg; off += testSeg {
				h.ReadAt(got, off)
				if !bytes.Equal(got, want[off:off+testSeg]) {
					t.Error("corrupted data under competition")
					return
				}
			}
		}()
	}
	wg.Wait()
	// Stop drains the readahead queue, so every queued prefetch has
	// landed (and evicted) by the time the count is read.
	sys.Stop()
	_, _, evictions := sys.Cache()
	if evictions == 0 {
		t.Fatal("competing processes over a tiny cache must cause evictions")
	}
}

func TestAppCentricDetectsStride(t *testing.T) {
	fs := testFS(t, 128*testSeg)
	sys := NewAppCentric(fs, AppCentricConfig{
		CacheBytes: 128 * testSeg, SegmentSize: testSeg, Depth: 4, Workers: 2,
	})
	defer sys.Stop()
	h, _ := sys.Open("app1", "f")
	defer h.Close()
	buf := make([]byte, testSeg)
	// Strided access: every 4th segment.
	for idx := int64(0); idx < 128; idx += 4 {
		h.ReadAt(buf, idx*testSeg)
		drainPrefetch()
	}
	if sys.Stats().HitRatio() < 0.4 {
		t.Fatalf("strided hit ratio = %.2f, want > 0.4", sys.Stats().HitRatio())
	}
}

func TestAppCentricPollutionBetweenApps(t *testing.T) {
	fs := testFS(t, 512*testSeg)
	// Cache fits only a quarter of the file; two apps with different
	// patterns compete.
	sys := NewAppCentric(fs, AppCentricConfig{
		CacheBytes: 128 * testSeg, SegmentSize: testSeg, Depth: 8, Workers: 4, Apps: 2,
	})
	defer sys.Stop()
	var wg sync.WaitGroup
	for _, app := range []string{"app1", "app2"} {
		wg.Add(1)
		go func(app string) {
			defer wg.Done()
			if app == "app2" {
				time.Sleep(5 * time.Millisecond) // skew the stages
			}
			h, _ := sys.Open(app, "f")
			defer h.Close()
			buf := make([]byte, testSeg)
			for round := 0; round < 2; round++ {
				for idx := int64(0); idx < 512; idx++ {
					h.ReadAt(buf, idx*testSeg)
					time.Sleep(20 * time.Microsecond)
				}
			}
		}(app)
	}
	wg.Wait()
	if sys.Evictions() == 0 {
		t.Fatal("undersized partitions must evict under two competing apps")
	}
	if sys.Redundant() == 0 {
		t.Fatal("two apps reading the same data must fetch redundantly")
	}
}

func TestStackerLearnsRepetitivePattern(t *testing.T) {
	fs := testFS(t, 32*testSeg)
	sys := NewStacker(fs, StackerConfig{
		CacheBytes: 32 * testSeg, SegmentSize: testSeg, Depth: 2, Workers: 2, MinCount: 2,
	})
	defer sys.Stop()
	h, _ := sys.Open("a", "f")
	defer h.Close()
	buf := make([]byte, testSeg)
	// Repetitive pattern: the same sequence four times; the Markov model
	// converges after the first two rounds.
	for round := 0; round < 4; round++ {
		for idx := int64(0); idx < 32; idx++ {
			h.ReadAt(buf, idx*testSeg)
			drainPrefetch()
		}
	}
	if sys.ModelSize() == 0 {
		t.Fatal("stacker learned nothing")
	}
	if sys.Stats().HitRatio() < 0.3 {
		t.Fatalf("repetitive hit ratio = %.2f, want > 0.3", sys.Stats().HitRatio())
	}
}

func TestKnowAcProfileThenReplay(t *testing.T) {
	fs := testFS(t, 64*testSeg)
	sys := NewKnowAc(fs, KnowAcConfig{
		CacheBytes: 64 * testSeg, SegmentSize: testSeg, Workers: 2, Window: 16,
	})
	defer sys.Stop()

	// The reader is paced slightly (think time); with free devices an
	// unpaced reader outruns any prefetcher by construction.
	script := func() {
		h, _ := sys.Open("a", "f")
		defer h.Close()
		buf := make([]byte, testSeg)
		for idx := int64(0); idx < 64; idx++ {
			h.ReadAt(buf, idx*testSeg)
			time.Sleep(500 * time.Microsecond)
		}
	}

	sys.StartProfile()
	script()
	if sys.HistoryLen() != 64 {
		t.Fatalf("history = %d, want 64", sys.HistoryLen())
	}
	sys.FinishProfile()

	// Measured run: the replay prefetcher should produce a high hit
	// ratio (give it a brief head start, as the real system would).
	time.Sleep(50 * time.Millisecond)
	script()
	if sys.Stats().HitRatio() < 0.7 {
		t.Fatalf("replay hit ratio = %.2f, want > 0.7", sys.Stats().HitRatio())
	}
}

func TestHFetchAdapter(t *testing.T) {
	fs := testFS(t, 32*testSeg)
	ram := tiers.NewStore("ram", 1<<20, nil)
	hier := tiers.NewHierarchy(ram)
	stats, maps := server.NewLocalMaps("n0")
	srv, err := server.New(server.Config{
		SegmentSize: testSeg,
		Engine:      placement.Config{UpdateThreshold: placement.High},
	}, fs, hier, stats, maps)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	sys := NewHFetch(srv)
	defer sys.Stop()
	if sys.Name() != "hfetch" || sys.Server() != srv {
		t.Fatal("adapter accessors wrong")
	}
	h, err := sys.Open("a", "f")
	if err != nil {
		t.Fatal(err)
	}
	verifyIntegrity(t, fs, h, "f", 32*testSeg)
	srv.Flush()
	verifyIntegrity(t, fs, h, "f", 32*testSeg)
	if sys.Stats().Hits() == 0 {
		t.Fatalf("hfetch adapter second pass must hit: %s", sys.Stats())
	}
	h.Close()
}

func TestAllSystemsServeIdenticalBytes(t *testing.T) {
	const size = 32 * testSeg
	for _, mk := range []func(*pfs.FS) System{
		func(fs *pfs.FS) System { return NewNone(fs) },
		func(fs *pfs.FS) System {
			return NewPrefetcher(fs, PrefetcherConfig{CacheBytes: size, SegmentSize: testSeg, Workers: 2})
		},
		func(fs *pfs.FS) System {
			return NewInMemOptimal(fs, InMemConfig{CacheBytes: size, SegmentSize: testSeg, Processes: 1})
		},
		func(fs *pfs.FS) System {
			return NewInMemNaive(fs, InMemConfig{CacheBytes: size, SegmentSize: testSeg, Processes: 2})
		},
		func(fs *pfs.FS) System {
			return NewAppCentric(fs, AppCentricConfig{CacheBytes: size, SegmentSize: testSeg})
		},
		func(fs *pfs.FS) System {
			return NewStacker(fs, StackerConfig{CacheBytes: size, SegmentSize: testSeg})
		},
		func(fs *pfs.FS) System {
			return NewKnowAc(fs, KnowAcConfig{CacheBytes: size, SegmentSize: testSeg})
		},
	} {
		fs := testFS(t, size)
		sys := mk(fs)
		h, err := sys.Open("a", "f")
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		t.Run(fmt.Sprintf("system=%s", sys.Name()), func(t *testing.T) {
			verifyIntegrity(t, fs, h, "f", size)
			verifyIntegrity(t, fs, h, "f", size) // warm pass
		})
		h.Close()
		sys.Stop()
	}
}

func TestReadViaCacheEdgeCases(t *testing.T) {
	fs := testFS(t, 10*testSeg)
	sys := NewPrefetcher(fs, PrefetcherConfig{CacheBytes: testSeg, SegmentSize: testSeg})
	defer sys.Stop()
	h, _ := sys.Open("a", "f")
	defer h.Close()
	buf := make([]byte, testSeg)
	if _, err := h.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset must error")
	}
	n, err := h.ReadAt(buf, 10*testSeg)
	if err != nil || n != 0 {
		t.Fatalf("read at EOF = %d %v", n, err)
	}
	n, err = h.ReadAt(buf, 10*testSeg-100)
	if err != nil || n != 100 {
		t.Fatalf("short read = %d %v", n, err)
	}
}

func TestStrideDetector(t *testing.T) {
	d := &strideDetector{}
	if got := d.observe(0, 4, 100); got != nil {
		t.Fatalf("first observation must predict nothing: %v", got)
	}
	d.observe(2, 4, 100)
	preds := d.observe(4, 4, 100)
	if len(preds) != 4 || preds[0] != 6 || preds[3] != 12 {
		t.Fatalf("stride-2 predictions = %v", preds)
	}
	// Pattern break resets confidence but keeps predicting the new delta
	// after it repeats.
	if got := d.observe(50, 4, 100); len(got) == 0 {
		t.Log("single observation of new delta may or may not predict; tolerated")
	}
	preds = d.observe(51, 4, 100)
	if len(preds) == 0 || preds[0] != 52 {
		t.Fatalf("sequential predictions after break = %v", preds)
	}
	// Predictions are clipped at file end.
	preds = d.observe(98, 4, 100)
	for _, p := range preds {
		if p >= 100 {
			t.Fatalf("prediction beyond EOF: %v", preds)
		}
	}
}

// TestStopJoinsEveryWorker starts each baseline that spawns goroutines,
// drives reads through two applications' handles, and stops it under a
// leak guard: Stop must return within five seconds, and no goroutine
// the system started may outlive it, also when a handle is still open.
func TestStopJoinsEveryWorker(t *testing.T) {
	const size = 32 * testSeg
	for _, c := range []struct {
		name     string
		sys      func(fs *pfs.FS) System
		keepOpen bool // leave the second application's handle open
	}{
		{"stacker", func(fs *pfs.FS) System {
			return NewStacker(fs, StackerConfig{CacheBytes: 8 * testSeg, SegmentSize: testSeg, Workers: 2, MinCount: 1})
		}, false},
		{"prefetcher", func(fs *pfs.FS) System {
			return NewPrefetcher(fs, PrefetcherConfig{CacheBytes: 8 * testSeg, SegmentSize: testSeg, Workers: 2})
		}, false},
		{"inmem-naive", func(fs *pfs.FS) System {
			return NewInMemNaive(fs, InMemConfig{CacheBytes: 8 * testSeg, SegmentSize: testSeg})
		}, false},
		{"inmem-optimal", func(fs *pfs.FS) System {
			return NewInMemOptimal(fs, InMemConfig{CacheBytes: 8 * testSeg, SegmentSize: testSeg, Processes: 2})
		}, false},
		{"knowac", func(fs *pfs.FS) System {
			return NewKnowAc(fs, KnowAcConfig{CacheBytes: 8 * testSeg, SegmentSize: testSeg, Workers: 2})
		}, false},
		{"app-centric", func(fs *pfs.FS) System {
			return NewAppCentric(fs, AppCentricConfig{CacheBytes: 8 * testSeg, SegmentSize: testSeg, Workers: 2, Apps: 2})
		}, false},
		{"inmem-optimal-handle-open", func(fs *pfs.FS) System {
			return NewInMemOptimal(fs, InMemConfig{CacheBytes: 8 * testSeg, SegmentSize: testSeg, Processes: 2})
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer leakcheck.Guard(t)()
			sys := c.sys(testFS(t, size))
			read := func() {
				buf := make([]byte, testSeg)
				for _, app := range []string{"a", "b"} {
					h, err := sys.Open(app, "f")
					if err != nil {
						t.Fatal(err)
					}
					for off := int64(0); off < size; off += testSeg {
						h.ReadAt(buf, off)
					}
					if !c.keepOpen || app == "a" {
						h.Close()
					}
				}
			}
			if k, ok := sys.(*KnowAc); ok {
				k.StartProfile()
				read()
				k.FinishProfile()
			}
			read()
			stopped := make(chan struct{})
			go func() { sys.Stop(); close(stopped) }()
			select {
			case <-stopped:
			case <-time.After(5 * time.Second):
				t.Error("Stop did not return within 5s")
			}
		})
	}
}

// TestPredictionRulesFetchWhatTheyPredict pins each comparator's
// prediction rule by its origin traffic: a fixed read sequence, then Stop
// (which lets every queued prefetch land), then the PFS device's operation
// count. Each sequence is chosen so that no predicted segment is also
// read, so the count is the reads plus the distinct segments the rule
// predicted, whatever the scheduling.
func TestPredictionRulesFetchWhatTheyPredict(t *testing.T) {
	const segs = 32
	// read opens f for app, reads the given segments and closes it.
	read := func(t *testing.T, sys System, app string, idx ...int64) {
		t.Helper()
		h, err := sys.Open(app, "f")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, testSeg)
		for _, i := range idx {
			if n, err := h.ReadAt(buf, i*testSeg); err != nil || n != testSeg {
				t.Fatalf("read of segment %d = %d, %v", i, n, err)
			}
		}
		h.Close()
	}
	for _, c := range []struct {
		name string
		sys  func(fs *pfs.FS) System
		run  func(t *testing.T, sys System)
		want int64 // origin reads: demand reads + predicted segments
	}{
		{"none", func(fs *pfs.FS) System { return NewNone(fs) },
			func(t *testing.T, sys System) { read(t, sys, "a", 0, 1, 2) }, 3},
		// Readahead of Depth: 0 → 1,2; 10 → 11,12; 31 is the last segment.
		{"serial", func(fs *pfs.FS) System {
			return NewPrefetcher(fs, PrefetcherConfig{CacheBytes: segs * testSeg, SegmentSize: testSeg, Depth: 2, Workers: 1})
		}, func(t *testing.T, sys System) { read(t, sys, "a", 0, 10, 31) }, 3 + 4},
		// 0 → 1,2,3; 10 → 11,12,13; 30 → 31 (clipped at the end).
		{"parallel", func(fs *pfs.FS) System {
			return NewPrefetcher(fs, PrefetcherConfig{CacheBytes: segs * testSeg, SegmentSize: testSeg, Depth: 3, Workers: 4})
		}, func(t *testing.T, sys System) { read(t, sys, "a", 0, 10, 30) }, 3 + 7},
		// One shared readahead cache: each process's accesses predict.
		{"inmem-naive", func(fs *pfs.FS) System {
			return NewInMemNaive(fs, InMemConfig{CacheBytes: segs * testSeg, SegmentSize: testSeg, Depth: 2, Processes: 2})
		}, func(t *testing.T, sys System) {
			read(t, sys, "a", 0)
			read(t, sys, "b", 10)
		}, 2 + 4},
		// A 3-segment private quota caps Depth 4 at 2: 10 → 11,12, then
		// the lower index restarts the sweep: 0 → 1,2.
		{"inmem-optimal", func(fs *pfs.FS) System {
			return NewInMemOptimal(fs, InMemConfig{CacheBytes: 4 * 3 * testSeg, SegmentSize: testSeg, Depth: 4, Processes: 4})
		}, func(t *testing.T, sys System) { read(t, sys, "a", 10, 0) }, 2 + 4},
		// Stride 2 is seen on the second read: 2 → 4,6,8, once per
		// application's private partition.
		{"app-centric", func(fs *pfs.FS) System {
			return NewAppCentric(fs, AppCentricConfig{CacheBytes: 2 * segs * testSeg, SegmentSize: testSeg, Depth: 3, Workers: 4, Apps: 2})
		}, func(t *testing.T, sys System) {
			read(t, sys, "a", 0, 2)
			read(t, sys, "b", 0, 2)
		}, 4 + 6},
		// 3→7 and 7→5 reach MinCount on the second round, 5→3 on the
		// last read, whose successor chain is 7, 5.
		{"stacker", func(fs *pfs.FS) System {
			return NewStacker(fs, StackerConfig{CacheBytes: segs * testSeg, SegmentSize: testSeg, Depth: 2, Workers: 2, MinCount: 2})
		}, func(t *testing.T, sys System) { read(t, sys, "a", 3, 7, 5, 3, 7, 5, 3) }, 7 + 2},
		// The profile records six accesses; replay streams the first
		// Window of them before anything is consumed.
		{"knowac", func(fs *pfs.FS) System {
			return NewKnowAc(fs, KnowAcConfig{CacheBytes: segs * testSeg, SegmentSize: testSeg, Workers: 2, Window: 4})
		}, func(t *testing.T, sys System) {
			k := sys.(*KnowAc)
			k.StartProfile()
			read(t, sys, "a", 5, 1, 9, 3, 7, 11)
			k.FinishProfile()
		}, 6 + 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := pfs.New(devsim.New(devsim.Profile{Name: "pfs"}, 1))
			fs.Create("f", segs*testSeg)
			sys := c.sys(fs)
			c.run(t, sys)
			sys.Stop()
			if ops, _, _ := fs.Device().Stats(); ops != c.want {
				t.Fatalf("origin reads = %d, want %d", ops, c.want)
			}
		})
	}
}

// TestReadsAfterCloseAndStop: a handle keeps serving correct bytes after
// it is closed and after its system is stopped; a prediction made then
// is dropped, never sent to a stopped worker.
func TestReadsAfterCloseAndStop(t *testing.T) {
	const size = 32 * testSeg
	for _, mk := range []func(*pfs.FS) System{
		func(fs *pfs.FS) System {
			return NewPrefetcher(fs, PrefetcherConfig{CacheBytes: size, SegmentSize: testSeg, Workers: 1})
		},
		func(fs *pfs.FS) System {
			return NewPrefetcher(fs, PrefetcherConfig{CacheBytes: size, SegmentSize: testSeg, Workers: 2})
		},
		func(fs *pfs.FS) System {
			return NewInMemNaive(fs, InMemConfig{CacheBytes: size, SegmentSize: testSeg, Processes: 2})
		},
		func(fs *pfs.FS) System {
			return NewInMemOptimal(fs, InMemConfig{CacheBytes: size, SegmentSize: testSeg, Processes: 1})
		},
		func(fs *pfs.FS) System {
			return NewAppCentric(fs, AppCentricConfig{CacheBytes: size, SegmentSize: testSeg})
		},
		func(fs *pfs.FS) System {
			return NewStacker(fs, StackerConfig{CacheBytes: size, SegmentSize: testSeg, MinCount: 1})
		},
		func(fs *pfs.FS) System {
			return NewKnowAc(fs, KnowAcConfig{CacheBytes: size, SegmentSize: testSeg})
		},
	} {
		fs := testFS(t, size)
		sys := mk(fs)
		t.Run(sys.Name(), func(t *testing.T) {
			want := make([]byte, size)
			fs.ReadAt("f", 0, want)
			h, err := sys.Open("a", "f")
			if err != nil {
				t.Fatal(err)
			}
			// Each pass reads b, b+2, b: enough for every rule to predict
			// (readahead, a stride, a learned transition back and forth).
			pass := func(b int64) {
				buf := make([]byte, testSeg)
				for _, i := range []int64{b, b + 2, b} {
					off := i * testSeg
					if n, err := h.ReadAt(buf, off); err != nil || n != testSeg {
						t.Fatalf("read of segment %d = %d, %v", i, n, err)
					}
					if !bytes.Equal(buf, want[off:off+testSeg]) {
						t.Fatalf("segment %d served wrong bytes", i)
					}
				}
			}
			if k, ok := sys.(*KnowAc); ok {
				k.StartProfile()
				pass(0)
				k.FinishProfile()
			}
			pass(0)
			h.Close()
			pass(10)
			sys.Stop()
			pass(20)
		})
		sys.Stop()
	}
}

// TestRuleValuesPredictWithoutAnEngine drives each comparator's rule
// value directly, with no PFS, cache or goroutine, over the read
// sequences of TestPredictionRulesFetchWhatTheyPredict, and checks that
// it predicts the segments that test counts at the origin: per
// application, since app-centric fetches once per private partition.
func TestRuleValuesPredictWithoutAnEngine(t *testing.T) {
	const segs = 32
	type read struct {
		app string
		idx []int64
	}
	for _, c := range []struct {
		name  string
		rule  rule
		reads []read
		want  []string // app/segment, in any order
	}{
		{"serial", readahead(2), []read{{"a", []int64{0, 10, 31}}},
			[]string{"a/1", "a/2", "a/11", "a/12"}},
		{"parallel", readahead(3), []read{{"a", []int64{0, 10, 30}}},
			[]string{"a/1", "a/2", "a/3", "a/11", "a/12", "a/13", "a/31"}},
		{"inmem-naive", readahead(2), []read{{"a", []int64{0}}, {"b", []int64{10}}},
			[]string{"a/1", "a/2", "b/11", "b/12"}},
		// Depth 4 capped at 2 by a 3-segment quota (NewInMemOptimal).
		{"inmem-optimal", readahead(2), []read{{"a", []int64{10, 0}}},
			[]string{"a/11", "a/12", "a/1", "a/2"}},
		{"app-centric", newStride(3), []read{{"a", []int64{0, 2}}, {"b", []int64{0, 2}}},
			[]string{"a/4", "a/6", "a/8", "b/4", "b/6", "b/8"}},
		{"stacker", newMarkov(2, 2), []read{{"a", []int64{3, 7, 5, 3, 7, 5, 3}}},
			[]string{"a/7", "a/5"}},
		// The profile records six accesses; finish wants the first four.
		{"knowac", &replay{window: 4, profiling: true}, []read{{"a", []int64{5, 1, 9, 3, 7, 11}}},
			[]string{"/5", "/1", "/9", "/3"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := map[string]bool{}
			add := func(app string, ids []seg.ID) {
				for _, id := range ids {
					if id.File != "f" {
						t.Fatalf("predicted %v, outside the file read", id)
					}
					got[fmt.Sprintf("%s/%d", app, id.Index)] = true
				}
			}
			var dst []seg.ID
			for _, r := range c.reads {
				for _, i := range r.idx {
					dst = c.rule.next(dst[:0], r.app, seg.ID{File: "f", Index: i}, segs)
					add(r.app, dst)
				}
			}
			if rp, ok := c.rule.(*replay); ok {
				add("", rp.finish(dst[:0]))
			}
			if len(got) != len(c.want) {
				t.Fatalf("predicted %v, want %v", got, c.want)
			}
			for _, w := range c.want {
				if !got[w] {
					t.Fatalf("predicted %v, want %v", got, c.want)
				}
			}
		})
	}
}

// TestKnowAcReplayStartsNoGoroutine: the profile, the replay and its
// reads run on the fetch pool that NewKnowAc starts; nothing KnowAc does
// after construction starts a goroutine of its own.
func TestKnowAcReplayStartsNoGoroutine(t *testing.T) {
	fs := testFS(t, 32*testSeg)
	sys := NewKnowAc(fs, KnowAcConfig{CacheBytes: 32 * testSeg, SegmentSize: testSeg, Workers: 2, Window: 8})
	defer sys.Stop()
	time.Sleep(10 * time.Millisecond) // let the pool's workers park on its queue
	check := leakcheck.Guard(t)
	h, err := sys.Open("a", "f")
	if err != nil {
		t.Fatal(err)
	}
	sys.StartProfile()
	verifyIntegrity(t, fs, h, "f", 32*testSeg)
	sys.FinishProfile()
	verifyIntegrity(t, fs, h, "f", 32*testSeg)
	h.Close()
	check()
}
