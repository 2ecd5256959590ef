package baselines

import (
	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
)

// PrefetcherConfig configures the single-tier readahead prefetchers.
type PrefetcherConfig struct {
	// CacheBytes is the RAM prefetching cache capacity.
	CacheBytes int64
	// CacheDevice models the cache medium (nil = free RAM).
	CacheDevice *devsim.Device
	// SegmentSize is the prefetch grain (default 1 MiB).
	SegmentSize int64
	// Depth is the readahead distance in segments (default 4).
	Depth int
	// Workers is the number of fetch threads: 1 = the paper's serial
	// prefetcher, >1 = the parallel prefetcher (default 1).
	Workers int
}

// Prefetcher is the classic single-tier readahead prefetcher: on every
// access, the next Depth segments are queued; Workers threads fetch them
// from the PFS into an LRU RAM cache. With Workers == 1 it is the
// paper's "serial" comparator, with Workers > 1 the "parallel" one.
type Prefetcher struct {
	substrate
	cache *lruCache
	pool  *fetchPool
}

// NewPrefetcher builds and starts the prefetcher.
func NewPrefetcher(fs *pfs.FS, cfg PrefetcherConfig) *Prefetcher {
	name := "serial"
	if cfg.Workers > 1 {
		name = "parallel"
	}
	return newPrefetcher(name, fs, cfg, 1024)
}

// newPrefetcher builds a readahead prefetcher whose queue holds queueLen
// hints.
func newPrefetcher(name string, fs *pfs.FS, cfg PrefetcherConfig, queueLen int) *Prefetcher {
	if cfg.Depth <= 0 {
		cfg.Depth = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	p := &Prefetcher{
		substrate: newSubstrate(name, fs, cfg.SegmentSize, readahead(cfg.Depth)),
		cache:     newLRUCache(cfg.CacheBytes, cfg.CacheDevice),
	}
	p.pool = newFetchPool(&p.substrate, cfg.Workers, queueLen, nil, nil)
	return p
}

// Stop implements System.
func (p *Prefetcher) Stop() { p.pool.stop() }

// Cache exposes cache statistics (used, entries, evictions).
func (p *Prefetcher) Cache() (int64, int, int64) { return p.cache.stats() }

// ResidentOf counts cached segments of the named file (ablation metric).
func (p *Prefetcher) ResidentOf(file string) int { return p.cache.residentOf(file) }

// Open implements System.
func (p *Prefetcher) Open(app, file string) (Handle, error) {
	return p.open(app, file, p.cache, p.pool)
}
