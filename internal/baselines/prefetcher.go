package baselines

import (
	"fmt"
	"sync"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
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
	// QueueLen bounds the readahead queue (default 1024).
	QueueLen int
	// Eviction selects the cache replacement policy (default LRU; LRFU
	// weighs frequency as well, the Lee et al. policy the paper's
	// segment scoring draws on).
	Eviction EvictionPolicy
	// Lambda is the LRFU decay rate per second (default 0.5).
	Lambda float64
}

// Prefetcher is the classic single-tier readahead prefetcher: on every
// access, the next Depth segments are queued; Workers threads fetch them
// from the PFS into an LRU RAM cache. With Workers == 1 it is the
// paper's "serial" comparator, with Workers > 1 the "parallel" one.
type Prefetcher struct {
	name  string
	fs    *pfs.FS
	segr  *seg.Segmenter
	cache *lruCache
	stats *telemetry.ReadStats

	queue chan fetchReq
	depth int
	wg    sync.WaitGroup
	once  sync.Once

	mu    sync.Mutex
	sizes map[string]int64 // file -> size, for readahead clipping
}

type fetchReq struct {
	id   seg.ID
	size int64
}

// NewPrefetcher builds and starts the prefetcher.
func NewPrefetcher(fs *pfs.FS, cfg PrefetcherConfig) *Prefetcher {
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = seg.DefaultSize
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	name := "serial"
	if cfg.Workers > 1 {
		name = "parallel"
	}
	p := &Prefetcher{
		name:  name,
		fs:    fs,
		segr:  seg.NewSegmenter(cfg.SegmentSize),
		cache: newCache(cfg.CacheBytes, cfg.CacheDevice, cfg.Eviction, cfg.Lambda),
		stats: telemetry.NewReadStats(),
		queue: make(chan fetchReq, cfg.QueueLen),
		depth: cfg.Depth,
		sizes: make(map[string]int64),
	}
	for w := 0; w < cfg.Workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Name implements System.
func (p *Prefetcher) Name() string { return p.name }

// Stats implements System.
func (p *Prefetcher) Stats() *telemetry.ReadStats { return p.stats }

// Stop implements System.
func (p *Prefetcher) Stop() {
	p.once.Do(func() { close(p.queue) })
	p.wg.Wait()
}

// Cache exposes cache statistics (used, entries, evictions).
func (p *Prefetcher) Cache() (int64, int, int64) { return p.cache.stats() }

// ResidentOf counts cached segments of the named file (ablation metric).
func (p *Prefetcher) ResidentOf(file string) int { return p.cache.residentOf(file) }

func (p *Prefetcher) worker() {
	defer p.wg.Done()
	for req := range p.queue {
		if p.cache.contains(req.id) {
			continue
		}
		done, ok := p.cache.beginFetch(req.id)
		if !ok {
			continue // another worker is already fetching it
		}
		buf := make([]byte, req.size)
		n, _, err := p.fs.ReadAt(req.id.File, req.id.Index*p.segr.Size(), buf)
		if err == nil && n > 0 {
			p.cache.put(req.id, buf[:n])
		}
		done()
	}
}

// onAccess queues readahead for the segments following idx.
func (p *Prefetcher) onAccess(file string, idx, fileSize int64) {
	count := p.segr.Count(fileSize)
	for i := int64(1); i <= int64(p.depth); i++ {
		next := idx + i
		if next >= count {
			break
		}
		id := seg.ID{File: file, Index: next}
		if p.cache.contains(id) {
			continue
		}
		size := p.segr.RangeOf(id, fileSize).Len
		select {
		case p.queue <- fetchReq{id: id, size: size}:
		default: // queue saturated: drop the hint
		}
	}
}

// Open implements System.
func (p *Prefetcher) Open(app, file string) (Handle, error) {
	fi, err := p.fs.Stat(file)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	p.mu.Lock()
	p.sizes[file] = fi.Size
	p.mu.Unlock()
	return &prefetchHandle{sys: p, file: file, size: fi.Size}, nil
}

type prefetchHandle struct {
	sys  *Prefetcher
	file string
	size int64
}

func (h *prefetchHandle) ReadAt(p []byte, off int64) (int, error) {
	return readViaCache(readCtx{
		file: h.file, size: h.size, segr: h.sys.segr,
		cache: h.sys.cache, fs: h.sys.fs, stats: h.sys.stats,
		onAccess: func(idx int64) { h.sys.onAccess(h.file, idx, h.size) },
	}, p, off)
}

func (h *prefetchHandle) Close() error { return nil }

// readCtx bundles what a cache-fronted segment read needs; shared by
// every single-tier baseline.
type readCtx struct {
	file     string
	size     int64
	segr     *seg.Segmenter
	cache    *lruCache
	fs       *pfs.FS
	stats    *telemetry.ReadStats
	onAccess func(idx int64)
	tierName string
}

// readViaCache serves [off, off+len(p)) segment by segment: cache hits
// from the LRU cache, misses from the PFS. onAccess fires once per
// covered segment after it is served.
func readViaCache(ctx readCtx, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("baselines: negative offset %d", off)
	}
	want := int64(len(p))
	if off >= ctx.size {
		return 0, nil
	}
	if off+want > ctx.size {
		want = ctx.size - off
	}
	tier := ctx.tierName
	if tier == "" {
		tier = "ram"
	}
	start := time.Now()
	n := int64(0)
	for n < want {
		cur := off + n
		idx := ctx.segr.IndexOf(cur)
		id := seg.ID{File: ctx.file, Index: idx}
		segStart := idx * ctx.segr.Size()
		segEnd := ctx.segr.RangeOf(id, ctx.size).End()
		chunk := segEnd - cur
		if chunk > want-n {
			chunk = want - n
		}
		if chunk <= 0 {
			break
		}
		payload, ok := ctx.cache.get(id)
		if !ok && ctx.cache.waitFor(id) {
			// A prefetch of this segment was in flight: join it rather
			// than issuing a duplicate origin read.
			payload, ok = ctx.cache.get(id)
		}
		if ok && cur-segStart < int64(len(payload)) {
			copied := copy(p[n:n+chunk], payload[cur-segStart:])
			ctx.stats.Hit(tier, int64(copied))
			n += int64(copied)
		} else {
			got, _, err := ctx.fs.ReadAt(ctx.file, cur, p[n:n+chunk])
			if err != nil {
				return int(n), err
			}
			ctx.stats.Miss(int64(got))
			n += int64(got)
			if int64(got) < chunk {
				break
			}
		}
		if ctx.onAccess != nil {
			ctx.onAccess(idx)
		}
	}
	ctx.stats.ObserveRead(time.Since(start))
	return int(n), nil
}
