package baselines

import (
	"sync"

	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
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

// NewInMemNaive builds the paper's "in-memory naive" prefetcher: one
// shared LRU cache that every process's readahead competes for, with as
// many uncoordinated workers as processes. At scale, the prefetch
// workers and the application threads also compete for the PFS,
// producing the interference that makes it slower than no prefetching.
func NewInMemNaive(fs *pfs.FS, cfg InMemConfig) *Prefetcher {
	workers := cfg.Processes
	if workers <= 0 {
		workers = 4
	}
	return newPrefetcher("inmem-naive", fs, PrefetcherConfig{
		CacheBytes:  cfg.CacheBytes,
		CacheDevice: cfg.CacheDevice,
		SegmentSize: cfg.SegmentSize,
		Depth:       cfg.Depth,
		Workers:     min(workers, 64),
	}, 4096)
}

// InMemOptimal models the paper's "in-memory optimal" prefetcher: each
// process owns a private slice of the cache and its own prefetch worker,
// and prefetches its own stream into it, so processes never evict or
// wait behind each other's data. It is optimal for the single-tier,
// client-pull design point.
type InMemOptimal struct {
	substrate
	quota int64
	dev   *devsim.Device

	mu    sync.Mutex
	pools []*fetchPool // one per handle
}

// NewInMemOptimal builds the system.
func NewInMemOptimal(fs *pfs.FS, cfg InMemConfig) *InMemOptimal {
	if cfg.Depth <= 0 {
		cfg.Depth = 4
	}
	if cfg.Processes <= 0 {
		cfg.Processes = 1
	}
	s := &InMemOptimal{
		substrate: newSubstrate("inmem-optimal", fs, cfg.SegmentSize, nil),
		quota:     cfg.CacheBytes / int64(cfg.Processes),
		dev:       cfg.CacheDevice,
	}
	// An optimal per-process prefetcher never reads further ahead than
	// its own cache can hold: that would evict its not-yet-consumed
	// prefetches. It always keeps one segment in flight.
	s.rule = readahead(max(min(cfg.Depth, int(s.quota/s.segr.Size())-1), 1))
	return s
}

// Stop implements System: it ends every handle's worker, open or closed.
func (s *InMemOptimal) Stop() {
	s.mu.Lock()
	pools := s.pools
	s.mu.Unlock()
	for _, p := range pools {
		p.stop()
	}
}

// Open implements System. Every handle is one process with a private
// cache partition and a private prefetch worker, which skips a queued
// prefetch at or below what its process has read in the current sweep
// instead of wasting PFS bandwidth (a lower index restarts the sweep:
// the next time step).
func (s *InMemOptimal) Open(app, file string) (Handle, error) {
	hd, err := s.open(app, file, newLRUCache(s.quota, s.dev), nil)
	if err != nil {
		return nil, err
	}
	h := hd.(*cachedFile)
	h.pool = newFetchPool(&s.substrate, 1, 256, func(r fetchReq) bool { return r.id.Index <= h.last.Load() }, nil)
	s.mu.Lock()
	s.pools = append(s.pools, h.pool)
	s.mu.Unlock()
	return h, nil
}
