package baselines

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
)

// InMemConfig configures the Figure 4(b) in-memory comparators.
type InMemConfig struct {
	// CacheBytes is the total RAM prefetching cache.
	CacheBytes int64
	// CacheDevice models the cache medium (nil = free RAM).
	CacheDevice *devsim.Device
	// SegmentSize is the prefetch grain (default 1 MiB).
	SegmentSize int64
	// Depth is the per-process readahead distance (default 4).
	Depth int
	// Processes is the expected process count; InMemOptimal divides
	// CacheBytes into that many private partitions.
	Processes int
}

// InMemOptimal models the paper's "in-memory optimal" prefetcher: each
// process owns a private slice of the cache and prefetches its own
// stream into it, so processes never evict each other's data. It is
// optimal for the single-tier, client-pull design point.
type InMemOptimal struct {
	fs    *pfs.FS
	segr  *seg.Segmenter
	cfg   InMemConfig
	stats *telemetry.ReadStats

	mu      sync.Mutex
	handles int
	wg      sync.WaitGroup
}

// NewInMemOptimal builds the system.
func NewInMemOptimal(fs *pfs.FS, cfg InMemConfig) *InMemOptimal {
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = seg.DefaultSize
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 4
	}
	if cfg.Processes <= 0 {
		cfg.Processes = 1
	}
	return &InMemOptimal{
		fs:    fs,
		segr:  seg.NewSegmenter(cfg.SegmentSize),
		cfg:   cfg,
		stats: telemetry.NewReadStats(),
	}
}

// Name implements System.
func (s *InMemOptimal) Name() string { return "inmem-optimal" }

// Stats implements System.
func (s *InMemOptimal) Stats() *telemetry.ReadStats { return s.stats }

// Stop implements System.
func (s *InMemOptimal) Stop() { s.wg.Wait() }

// Open implements System. Every handle is one process with a private
// cache partition and a private prefetch worker.
func (s *InMemOptimal) Open(app, file string) (Handle, error) {
	fi, err := s.fs.Stat(file)
	if err != nil {
		return nil, fmt.Errorf("inmem-optimal: %w", err)
	}
	quota := s.cfg.CacheBytes / int64(s.cfg.Processes)
	// An optimal per-process prefetcher never reads further ahead than
	// its own cache can hold: that would evict its not-yet-consumed
	// prefetches.
	depth := s.cfg.Depth
	if max := int(quota/s.segr.Size()) - 1; depth > max {
		depth = max
	}
	if depth < 1 {
		depth = 1 // pipelining floor: always one segment in flight
	}
	h := &optimalHandle{
		sys:   s,
		file:  file,
		size:  fi.Size,
		depth: depth,
		cache: newLRUCache(quota, s.cfg.CacheDevice),
		queue: make(chan fetchReq, 256),
	}
	s.wg.Add(1)
	go h.worker()
	return h, nil
}

type optimalHandle struct {
	sys   *InMemOptimal
	file  string
	size  int64
	depth int
	cache *lruCache
	queue chan fetchReq
	once  sync.Once

	// consumed is the highest segment index the process has read in its
	// current sweep; queued prefetches at or below it are stale and are
	// skipped instead of wasting PFS bandwidth on duplicate fetches.
	consumed atomic.Int64
}

func (h *optimalHandle) worker() {
	defer h.sys.wg.Done()
	for req := range h.queue {
		if req.id.Index <= h.consumed.Load() || h.cache.contains(req.id) {
			continue
		}
		done, ok := h.cache.beginFetch(req.id)
		if !ok {
			continue
		}
		buf := make([]byte, req.size)
		n, _, err := h.sys.fs.ReadAt(req.id.File, req.id.Index*h.sys.segr.Size(), buf)
		if err == nil && n > 0 {
			h.cache.put(req.id, buf[:n])
		}
		done()
	}
}

func (h *optimalHandle) ReadAt(p []byte, off int64) (int, error) {
	return readViaCache(readCtx{
		file: h.file, size: h.size, segr: h.sys.segr,
		cache: h.cache, fs: h.sys.fs, stats: h.sys.stats,
		onAccess: func(idx int64) {
			// A lower index restarts the sweep (next time step).
			h.consumed.Store(idx)
			count := h.sys.segr.Count(h.size)
			for i := int64(1); i <= int64(h.depth); i++ {
				next := idx + i
				if next >= count {
					break
				}
				id := seg.ID{File: h.file, Index: next}
				if h.cache.contains(id) {
					continue
				}
				select {
				case h.queue <- fetchReq{id: id, size: h.sys.segr.RangeOf(id, h.size).Len}:
				default:
				}
			}
		},
	}, p, off)
}

func (h *optimalHandle) Close() error {
	h.once.Do(func() { close(h.queue) })
	return nil
}

// InMemNaive models the paper's "in-memory naive" prefetcher: one shared
// LRU cache that every process's readahead competes for. At scale, the
// prefetch workers and the application threads also compete for the PFS,
// producing the interference that makes it slower than no prefetching.
type InMemNaive struct {
	pf *Prefetcher
}

// NewInMemNaive builds the system (a shared readahead prefetcher with as
// many workers as processes, uncoordinated).
func NewInMemNaive(fs *pfs.FS, cfg InMemConfig) *InMemNaive {
	workers := cfg.Processes
	if workers <= 0 {
		workers = 4
	}
	if workers > 64 {
		workers = 64
	}
	return &InMemNaive{pf: NewPrefetcher(fs, PrefetcherConfig{
		CacheBytes:  cfg.CacheBytes,
		CacheDevice: cfg.CacheDevice,
		SegmentSize: cfg.SegmentSize,
		Depth:       cfg.Depth,
		Workers:     workers,
		QueueLen:    4096,
	})}
}

// Name implements System.
func (s *InMemNaive) Name() string { return "inmem-naive" }

// Stats implements System.
func (s *InMemNaive) Stats() *telemetry.ReadStats { return s.pf.Stats() }

// Stop implements System.
func (s *InMemNaive) Stop() { s.pf.Stop() }

// Cache exposes cache statistics (used, entries, evictions).
func (s *InMemNaive) Cache() (int64, int, int64) { return s.pf.Cache() }

// Open implements System.
func (s *InMemNaive) Open(app, file string) (Handle, error) { return s.pf.Open(app, file) }
