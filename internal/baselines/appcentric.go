package baselines

import (
	"sync"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
)

// AppCentricConfig configures the application-centric comparator.
type AppCentricConfig struct {
	// CacheBytes is the total prefetching cache capacity, divided into
	// Apps private partitions.
	CacheBytes int64
	// CacheDevice models the cache medium.
	CacheDevice *devsim.Device
	// SegmentSize is the prefetch grain (default 1 MiB).
	SegmentSize int64
	// Depth is the prediction distance (default 4).
	Depth int
	// Workers is the fetch thread pool size (default 4).
	Workers int
	// Apps is the expected number of applications; the cache is split
	// into that many private partitions (default 4).
	Apps int
}

// AppCentric models the client-pull, application-centric prefetcher of
// Figure 5: every application runs its own access-pattern detector
// (sequential and strided detection, the standard client-side design)
// and prefetches into its own private slice of the cache. Because the
// applications do not coordinate, the same shared data is fetched and
// cached once per application (cache redundancy), each partition is too
// small for its app's working set (unwanted evictions), and wrong
// per-app predictions waste origin bandwidth (pollution).
type AppCentric struct {
	substrate
	cfg  AppCentricConfig
	pool *fetchPool

	mu        sync.Mutex
	caches    map[string]*lruCache
	redundant int64 // fetches already cached by another app
}

// stride is AppCentric's rule: one stride detector per application and
// file, each predicting depth strides ahead once a stride repeats.
type stride struct {
	depth     int
	detectors map[string]*strideDetector // key: app|file
}

func newStride(depth int) *stride {
	return &stride{depth: depth, detectors: make(map[string]*strideDetector)}
}

func (s *stride) next(dst []seg.ID, app string, id seg.ID, segs int64) []seg.ID {
	key := app + "|" + id.File
	d := s.detectors[key]
	if d == nil {
		d = &strideDetector{}
		s.detectors[key] = d
	}
	for _, i := range d.observe(id.Index, s.depth, segs) {
		dst = append(dst, seg.ID{File: id.File, Index: i})
	}
	return dst
}

type strideDetector struct {
	lastIdx    int64
	delta      int64
	confidence int
	seen       bool
}

// observe feeds one access and returns the predicted next indices.
func (d *strideDetector) observe(idx int64, depth int, count int64) []int64 {
	if d.seen {
		delta := idx - d.lastIdx
		if delta == d.delta {
			d.confidence++
		} else {
			d.delta = delta
			d.confidence = 1
		}
	}
	d.lastIdx = idx
	d.seen = true
	if d.confidence < 1 || d.delta == 0 {
		return nil
	}
	var out []int64
	for i := int64(1); i <= int64(depth); i++ {
		next := idx + i*d.delta
		if next < 0 || next >= count {
			break
		}
		out = append(out, next)
	}
	return out
}

// NewAppCentric builds and starts the system.
func NewAppCentric(fs *pfs.FS, cfg AppCentricConfig) *AppCentric {
	if cfg.Depth <= 0 {
		cfg.Depth = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Apps <= 0 {
		cfg.Apps = 4
	}
	s := &AppCentric{
		substrate: newSubstrate("app-centric", fs, cfg.SegmentSize, newStride(cfg.Depth)),
		cfg:       cfg,
		caches:    make(map[string]*lruCache),
	}
	s.pool = newFetchPool(&s.substrate, cfg.Workers, 4096, nil, s.landed)
	return s
}

// Stop implements System.
func (s *AppCentric) Stop() { s.pool.stop() }

// cacheFor returns (creating if needed) app's private partition.
func (s *AppCentric) cacheFor(app string) *lruCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.caches[app]
	if c == nil {
		c = newLRUCache(s.cfg.CacheBytes/int64(s.cfg.Apps), s.cfg.CacheDevice)
		s.caches[app] = c
	}
	return c
}

// Evictions sums evictions across all partitions.
func (s *AppCentric) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, c := range s.caches {
		_, _, ev := c.stats()
		t += ev
	}
	return t
}

// Redundant returns the number of prefetches of segments some other
// application had already cached (cross-application redundancy).
func (s *AppCentric) Redundant() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.redundant
}

// landed counts a fetch another application had also paid for: the
// app-centric design cannot share copies across partitions.
func (s *AppCentric) landed(r fetchReq) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.caches {
		if c != r.cache && c.contains(r.id) {
			s.redundant++
			return
		}
	}
}

// Open implements System.
func (s *AppCentric) Open(app, file string) (Handle, error) {
	return s.open(app, file, s.cacheFor(app), s.pool)
}
