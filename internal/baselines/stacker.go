package baselines

import (
	"fmt"
	"sync"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
)

// StackerConfig configures the online learned comparator.
type StackerConfig struct {
	// CacheBytes is the staging (RAM) cache capacity.
	CacheBytes int64
	// CacheDevice models the cache medium.
	CacheDevice *devsim.Device
	// SegmentSize is the prefetch grain (default 1 MiB).
	SegmentSize int64
	// Depth is how many predicted steps to prefetch (default 2).
	Depth int
	// Workers is the fetch thread pool size (default 4).
	Workers int
	// MinCount is the observation count a transition needs before it is
	// trusted (the model-convergence warm-up; default 2).
	MinCount int
}

// Stacker models Stacker (Subedi et al., SC'18): an autonomic,
// learn-as-you-go data movement engine. It builds a first-order Markov
// model over segment transitions while the workload runs and prefetches
// the most probable successors of each accessed segment. It needs no
// offline profiling, but pays a warm-up: until transitions have been
// seen enough times, nothing is prefetched — the paper's "lower hit
// ratio due to some cache conflicts and unwanted data evictions".
type Stacker struct {
	fs    *pfs.FS
	segr  *seg.Segmenter
	cfg   StackerConfig
	cache *lruCache
	stats *telemetry.ReadStats

	queue chan fetchReq
	wg    sync.WaitGroup
	once  sync.Once

	mu    sync.Mutex
	trans map[seg.ID]map[int64]int // observed successor counts
	last  map[string]int64         // file -> last accessed index
}

// NewStacker builds and starts the system.
func NewStacker(fs *pfs.FS, cfg StackerConfig) *Stacker {
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = seg.DefaultSize
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MinCount <= 0 {
		cfg.MinCount = 2
	}
	s := &Stacker{
		fs:    fs,
		segr:  seg.NewSegmenter(cfg.SegmentSize),
		cfg:   cfg,
		cache: newLRUCache(cfg.CacheBytes, cfg.CacheDevice),
		stats: telemetry.NewReadStats(),
		queue: make(chan fetchReq, 4096),
		trans: make(map[seg.ID]map[int64]int),
		last:  make(map[string]int64),
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Name implements System.
func (s *Stacker) Name() string { return "stacker" }

// Stats implements System.
func (s *Stacker) Stats() *telemetry.ReadStats { return s.stats }

// Stop implements System.
func (s *Stacker) Stop() {
	s.once.Do(func() { close(s.queue) })
	s.wg.Wait()
}

func (s *Stacker) worker() {
	defer s.wg.Done()
	for req := range s.queue {
		if s.cache.contains(req.id) {
			continue
		}
		done, ok := s.cache.beginFetch(req.id)
		if !ok {
			continue
		}
		buf := make([]byte, req.size)
		n, _, err := s.fs.ReadAt(req.id.File, req.id.Index*s.segr.Size(), buf)
		if err == nil && n > 0 {
			s.cache.put(req.id, buf[:n])
		}
		done()
	}
}

// learnAndPredict records the transition into idx and returns the
// learned successor chain starting from idx.
func (s *Stacker) learnAndPredict(file string, idx, size int64) []int64 {
	s.mu.Lock()
	if prev, ok := s.last[file]; ok && prev != idx {
		pid := seg.ID{File: file, Index: prev}
		m := s.trans[pid]
		if m == nil {
			m = make(map[int64]int)
			s.trans[pid] = m
		}
		m[idx]++
	}
	s.last[file] = idx

	var preds []int64
	cur := idx
	for step := 0; step < s.cfg.Depth; step++ {
		m := s.trans[seg.ID{File: file, Index: cur}]
		best, bestN := int64(-1), 0
		for next, n := range m {
			if n > bestN {
				best, bestN = next, n
			}
		}
		if best < 0 || bestN < s.cfg.MinCount {
			break
		}
		preds = append(preds, best)
		cur = best
	}
	s.mu.Unlock()
	return preds
}

// ModelSize returns the number of segments with learned transitions.
func (s *Stacker) ModelSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.trans)
}

// Open implements System.
func (s *Stacker) Open(app, file string) (Handle, error) {
	fi, err := s.fs.Stat(file)
	if err != nil {
		return nil, fmt.Errorf("stacker: %w", err)
	}
	return &stackerHandle{sys: s, file: file, size: fi.Size}, nil
}

type stackerHandle struct {
	sys  *Stacker
	file string
	size int64
}

func (h *stackerHandle) ReadAt(p []byte, off int64) (int, error) {
	return readViaCache(readCtx{
		file: h.file, size: h.size, segr: h.sys.segr,
		cache: h.sys.cache, fs: h.sys.fs, stats: h.sys.stats,
		onAccess: func(idx int64) {
			for _, next := range h.sys.learnAndPredict(h.file, idx, h.size) {
				id := seg.ID{File: h.file, Index: next}
				if h.sys.cache.contains(id) {
					continue
				}
				select {
				case h.sys.queue <- fetchReq{id: id, size: h.sys.segr.RangeOf(id, h.size).Len}:
				default:
				}
			}
		},
	}, p, off)
}

func (h *stackerHandle) Close() error { return nil }
