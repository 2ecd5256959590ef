package baselines

import (
	"sync"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
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
	substrate
	cfg   StackerConfig
	cache *lruCache
	pool  *fetchPool

	mu    sync.Mutex
	trans map[seg.ID]map[int64]int // observed successor counts
	last  map[string]int64         // file -> last accessed index
}

// NewStacker builds and starts the system.
func NewStacker(fs *pfs.FS, cfg StackerConfig) *Stacker {
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MinCount <= 0 {
		cfg.MinCount = 2
	}
	return &Stacker{
		substrate: newSubstrate("stacker", fs, cfg.SegmentSize),
		cfg:       cfg,
		cache:     newLRUCache(cfg.CacheBytes, cfg.CacheDevice),
		pool:      newFetchPool(cfg.Workers, 4096, nil, nil),
		trans:     make(map[seg.ID]map[int64]int),
		last:      make(map[string]int64),
	}
}

// Stop implements System.
func (s *Stacker) Stop() { s.pool.stop() }

// learnAndPredict records the transition into idx and returns the
// learned successor chain starting from idx.
func (s *Stacker) learnAndPredict(file string, idx int64) []int64 {
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
	return s.open(file, s.cache, s.predict)
}

func (s *Stacker) predict(h *cachedFile, idx int64) {
	for _, next := range s.learnAndPredict(h.file, idx) {
		s.pool.want(h, next)
	}
}
