package baselines

import (
	"fmt"
	"sync"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
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
	fs    *pfs.FS
	segr  *seg.Segmenter
	cfg   AppCentricConfig
	stats *telemetry.ReadStats

	queue chan appFetchReq
	wg    sync.WaitGroup
	once  sync.Once

	mu        sync.Mutex
	caches    map[string]*lruCache
	detectors map[string]*strideDetector // key: app|file
	redundant int64                      // fetches already cached by another app
}

type appFetchReq struct {
	app string
	fetchReq
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
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = seg.DefaultSize
	}
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
		fs:        fs,
		segr:      seg.NewSegmenter(cfg.SegmentSize),
		cfg:       cfg,
		stats:     telemetry.NewReadStats(),
		queue:     make(chan appFetchReq, 4096),
		caches:    make(map[string]*lruCache),
		detectors: make(map[string]*strideDetector),
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Name implements System.
func (s *AppCentric) Name() string { return "app-centric" }

// Stats implements System.
func (s *AppCentric) Stats() *telemetry.ReadStats { return s.stats }

// Stop implements System.
func (s *AppCentric) Stop() {
	s.once.Do(func() { close(s.queue) })
	s.wg.Wait()
}

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

func (s *AppCentric) worker() {
	defer s.wg.Done()
	for req := range s.queue {
		cache := s.cacheFor(req.app)
		if cache.contains(req.id) {
			continue
		}
		done, ok := cache.beginFetch(req.id)
		if !ok {
			continue
		}
		buf := make([]byte, req.size)
		n, _, err := s.fs.ReadAt(req.id.File, req.id.Index*s.segr.Size(), buf)
		if err == nil && n > 0 {
			cache.put(req.id, buf[:n])
			// Cross-application redundancy accounting: another app also
			// paid for this segment, but the app-centric design cannot
			// share copies across partitions.
			s.mu.Lock()
			for app, c := range s.caches {
				if app != req.app && c.contains(req.id) {
					s.redundant++
					break
				}
			}
			s.mu.Unlock()
		}
		done()
	}
}

func (s *AppCentric) predict(app, file string, idx, size int64) {
	key := app + "|" + file
	s.mu.Lock()
	d := s.detectors[key]
	if d == nil {
		d = &strideDetector{}
		s.detectors[key] = d
	}
	next := d.observe(idx, s.cfg.Depth, s.segr.Count(size))
	s.mu.Unlock()
	for _, n := range next {
		id := seg.ID{File: file, Index: n}
		select {
		case s.queue <- appFetchReq{app: app, fetchReq: fetchReq{id: id, size: s.segr.RangeOf(id, size).Len}}:
		default:
		}
	}
}

// Open implements System.
func (s *AppCentric) Open(app, file string) (Handle, error) {
	fi, err := s.fs.Stat(file)
	if err != nil {
		return nil, fmt.Errorf("app-centric: %w", err)
	}
	return &appCentricHandle{sys: s, app: app, file: file, size: fi.Size}, nil
}

type appCentricHandle struct {
	sys  *AppCentric
	app  string
	file string
	size int64
}

func (h *appCentricHandle) ReadAt(p []byte, off int64) (int, error) {
	return readViaCache(readCtx{
		file: h.file, size: h.size, segr: h.sys.segr,
		cache: h.sys.cacheFor(h.app), fs: h.sys.fs, stats: h.sys.stats,
		onAccess: func(idx int64) { h.sys.predict(h.app, h.file, idx, h.size) },
	}, p, off)
}

func (h *appCentricHandle) Close() error { return nil }
