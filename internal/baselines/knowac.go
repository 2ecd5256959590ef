package baselines

import (
	"fmt"
	"sync"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
)

// KnowAcConfig configures the history-based comparator.
type KnowAcConfig struct {
	// CacheBytes is the prefetching cache capacity.
	CacheBytes int64
	// CacheDevice models the cache medium.
	CacheDevice *devsim.Device
	// SegmentSize is the prefetch grain (default 1 MiB).
	SegmentSize int64
	// Workers is the fetch thread pool size (default 4).
	Workers int
	// Window is how far ahead of consumption the prefetcher may run, in
	// recorded accesses (default 64).
	Window int
}

// KnowAc models KnowAc (He, Sun, Thakur — Cluster'12): I/O prefetching
// via accumulated knowledge. A profiling pass records the exact global
// access sequence; the production run replays that knowledge, streaming
// the recorded segments into the cache just ahead of consumption. Its
// read time is the best of all comparators — the prefetcher knows
// exactly what comes next — but the profiling pass is real end-to-end
// cost the paper charges it for ("profile-cost plus run time").
type KnowAc struct {
	fs    *pfs.FS
	segr  *seg.Segmenter
	cfg   KnowAcConfig
	cache *lruCache
	stats *telemetry.ReadStats

	mu        sync.Mutex
	profiling bool
	history   []fetchReq
	pos       map[seg.ID][]int // id -> positions in history
	consumed  int              // highest matched history position

	stopCh  chan struct{}
	wakeCh  chan struct{}
	wg      sync.WaitGroup
	started bool
	once    sync.Once
}

// NewKnowAc builds the system; call StartProfile/FinishProfile around a
// profiling pass before the measured run.
func NewKnowAc(fs *pfs.FS, cfg KnowAcConfig) *KnowAc {
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = seg.DefaultSize
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	return &KnowAc{
		fs:     fs,
		segr:   seg.NewSegmenter(cfg.SegmentSize),
		cfg:    cfg,
		cache:  newLRUCache(cfg.CacheBytes, cfg.CacheDevice),
		stats:  telemetry.NewReadStats(),
		pos:    make(map[seg.ID][]int),
		stopCh: make(chan struct{}),
		wakeCh: make(chan struct{}, 1),
	}
}

// Name implements System.
func (k *KnowAc) Name() string { return "knowac" }

// Stats implements System.
func (k *KnowAc) Stats() *telemetry.ReadStats { return k.stats }

// Stop implements System.
func (k *KnowAc) Stop() {
	k.once.Do(func() { close(k.stopCh) })
	k.wg.Wait()
}

// StartProfile switches the system into recording mode: reads are served
// from the PFS (no prefetching) and the access sequence is accumulated.
func (k *KnowAc) StartProfile() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.profiling = true
	k.history = nil
}

// FinishProfile ends recording, indexes the history, resets statistics,
// and launches the replay prefetcher for the measured run.
func (k *KnowAc) FinishProfile() {
	k.mu.Lock()
	k.profiling = false
	k.pos = make(map[seg.ID][]int, len(k.history))
	for i, req := range k.history {
		k.pos[req.id] = append(k.pos[req.id], i)
	}
	k.consumed = -1
	started := k.started
	k.started = true
	k.mu.Unlock()
	k.stats = telemetry.NewReadStats()
	if !started {
		for w := 0; w < k.cfg.Workers; w++ {
			k.wg.Add(1)
			go k.replayWorker(w)
		}
	}
	k.wake()
}

// HistoryLen returns the recorded access count.
func (k *KnowAc) HistoryLen() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.history)
}

func (k *KnowAc) wake() {
	select {
	case k.wakeCh <- struct{}{}:
	default:
	}
}

// replayWorker streams history entries into the cache, staying within
// Window of the consumption cursor. Workers stripe the history by index.
func (k *KnowAc) replayWorker(worker int) {
	defer k.wg.Done()
	next := worker
	for {
		k.mu.Lock()
		limit := k.consumed + k.cfg.Window
		hlen := len(k.history)
		var req fetchReq
		ready := next < hlen && next <= limit
		if ready {
			req = k.history[next]
		}
		k.mu.Unlock()
		if !ready {
			select {
			case <-k.stopCh:
				return
			case <-k.wakeCh:
				k.wake() // cascade to sibling workers
				continue
			}
		}
		next += k.cfg.Workers
		if k.cache.contains(req.id) {
			continue
		}
		done, ok := k.cache.beginFetch(req.id)
		if !ok {
			continue
		}
		buf := make([]byte, req.size)
		n, _, err := k.fs.ReadAt(req.id.File, req.id.Index*k.segr.Size(), buf)
		if err == nil && n > 0 {
			k.cache.put(req.id, buf[:n])
		}
		done()
	}
}

// onAccess records (profiling) or advances the consumption cursor
// (replay).
func (k *KnowAc) onAccess(file string, idx, size int64) {
	id := seg.ID{File: file, Index: idx}
	k.mu.Lock()
	if k.profiling {
		k.history = append(k.history, fetchReq{id: id, size: k.segr.RangeOf(id, size).Len})
		k.mu.Unlock()
		return
	}
	// Advance the cursor to the first unconsumed occurrence of id.
	for _, p := range k.pos[id] {
		if p > k.consumed {
			k.consumed = p
			break
		}
	}
	k.mu.Unlock()
	k.wake()
}

// Open implements System.
func (k *KnowAc) Open(app, file string) (Handle, error) {
	fi, err := k.fs.Stat(file)
	if err != nil {
		return nil, fmt.Errorf("knowac: %w", err)
	}
	return &knowacHandle{sys: k, file: file, size: fi.Size}, nil
}

type knowacHandle struct {
	sys  *KnowAc
	file string
	size int64
}

func (h *knowacHandle) ReadAt(p []byte, off int64) (int, error) {
	return readViaCache(readCtx{
		file: h.file, size: h.size, segr: h.sys.segr,
		cache: h.sys.cache, fs: h.sys.fs, stats: h.sys.stats,
		onAccess: func(idx int64) { h.sys.onAccess(h.file, idx, h.size) },
	}, p, off)
}

func (h *knowacHandle) Close() error { return nil }
