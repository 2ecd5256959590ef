package baselines

import (
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
	cache *lruCache
	pool  *fetchPool
	model *markov
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
	model := newMarkov(cfg.Depth, cfg.MinCount)
	s := &Stacker{
		substrate: newSubstrate("stacker", fs, cfg.SegmentSize, model),
		cache:     newLRUCache(cfg.CacheBytes, cfg.CacheDevice),
		model:     model,
	}
	s.pool = newFetchPool(&s.substrate, cfg.Workers, 4096, nil, nil)
	return s
}

// Stop implements System.
func (s *Stacker) Stop() { s.pool.stop() }

// markov is Stacker's rule: a first-order transition table over each
// file's segments, learned from the accesses it is told of, predicting
// the chain of most frequent successors that have been seen minCount
// times, up to depth steps.
type markov struct {
	depth, minCount int
	trans           map[seg.ID]map[int64]int // observed successor counts
	last            map[string]int64         // file -> last accessed index
}

func newMarkov(depth, minCount int) *markov {
	return &markov{depth: depth, minCount: minCount, trans: make(map[seg.ID]map[int64]int), last: make(map[string]int64)}
}

// next records the transition into id and appends the learned successor
// chain starting from it.
func (m *markov) next(dst []seg.ID, _ string, id seg.ID, _ int64) []seg.ID {
	if prev, ok := m.last[id.File]; ok && prev != id.Index {
		pid := seg.ID{File: id.File, Index: prev}
		succ := m.trans[pid]
		if succ == nil {
			succ = make(map[int64]int)
			m.trans[pid] = succ
		}
		succ[id.Index]++
	}
	m.last[id.File] = id.Index

	cur := id
	for range m.depth {
		best, bestN := int64(-1), 0
		for next, n := range m.trans[cur] {
			if n > bestN {
				best, bestN = next, n
			}
		}
		if best < 0 || bestN < m.minCount {
			break
		}
		cur.Index = best
		dst = append(dst, cur)
	}
	return dst
}

// ModelSize returns the number of segments with learned transitions.
func (s *Stacker) ModelSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.model.trans)
}

// Open implements System.
func (s *Stacker) Open(app, file string) (Handle, error) {
	return s.open(app, file, s.cache, s.pool)
}
