package baselines

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
)

// substrate is what every comparator reads through: the PFS, the
// segment grain and the read statistics its handles record into.
type substrate struct {
	name  string
	fs    *pfs.FS
	segr  *seg.Segmenter
	stats *telemetry.ReadStats
}

func newSubstrate(name string, fs *pfs.FS, segSize int64) substrate {
	if segSize <= 0 {
		segSize = seg.DefaultSize
	}
	return substrate{name: name, fs: fs, segr: seg.NewSegmenter(segSize), stats: telemetry.NewReadStats()}
}

// Name implements System.
func (s *substrate) Name() string { return s.name }

// Stats implements System.
func (s *substrate) Stats() *telemetry.ReadStats { return s.stats }

// open returns a handle on file that reads through cache and hands each
// served segment to predict, the comparator's prediction rule.
func (s *substrate) open(file string, cache *lruCache, predict func(h *cachedFile, idx int64)) (Handle, error) {
	size, err := statFile(s.fs, s.name, file)
	if err != nil {
		return nil, err
	}
	return &cachedFile{substrate: s, file: file, size: size, cache: cache, predict: predict}, nil
}

// statFile returns file's size, or an error naming the system.
func statFile(fs *pfs.FS, sys, file string) (int64, error) {
	fi, err := fs.Stat(file)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", sys, err)
	}
	return fi.Size, nil
}

// cachedFile is the comparators' handle: it serves a read segment by
// segment, hits from its cache and misses from the PFS, and runs the
// prediction rule after each segment it serves.
type cachedFile struct {
	*substrate
	file    string
	size    int64
	cache   *lruCache
	predict func(h *cachedFile, idx int64)

	// last is the index of the segment served last (InMemOptimal's
	// stale-request rule reads it).
	last atomic.Int64
}

// ReadAt implements Handle.
func (h *cachedFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("baselines: negative offset %d", off)
	}
	want := int64(len(p))
	if off >= h.size {
		return 0, nil
	}
	if off+want > h.size {
		want = h.size - off
	}
	start := time.Now()
	n := int64(0)
	for n < want {
		cur := off + n
		idx := h.segr.IndexOf(cur)
		id := seg.ID{File: h.file, Index: idx}
		segStart := idx * h.segr.Size()
		chunk := min(h.segr.RangeOf(id, h.size).End()-cur, want-n)
		if chunk <= 0 {
			break
		}
		payload, ok := h.cache.get(id)
		if !ok && h.cache.waitFor(id) {
			// A prefetch of this segment was in flight: join it rather
			// than issuing a duplicate origin read.
			payload, ok = h.cache.get(id)
		}
		if ok && cur-segStart < int64(len(payload)) {
			copied := copy(p[n:n+chunk], payload[cur-segStart:])
			h.stats.Hit("ram", int64(copied))
			n += int64(copied)
		} else {
			got, _, err := h.fs.ReadAt(h.file, cur, p[n:n+chunk])
			if err != nil {
				return int(n), err
			}
			h.stats.Miss(int64(got))
			n += int64(got)
			if int64(got) < chunk {
				break
			}
		}
		h.last.Store(idx)
		h.predict(h, idx)
	}
	h.stats.ObserveRead(time.Since(start))
	return int(n), nil
}

// Close implements Handle; a handle holds nothing to release.
func (h *cachedFile) Close() error { return nil }

// fetchReq asks for segment id of h's file to be brought into h's cache.
type fetchReq struct {
	h    *cachedFile
	id   seg.ID
	size int64
}

// request builds the fetch of segment idx of h's file.
func (h *cachedFile) request(idx int64) fetchReq {
	id := seg.ID{File: h.file, Index: idx}
	return fetchReq{h: h, id: id, size: h.segr.RangeOf(id, h.size).Len}
}

// fetch reads r's segment from the PFS into its cache unless it is there
// or already on its way; it reports whether this call landed it.
func fetch(r fetchReq) bool {
	c := r.h.cache
	if c.contains(r.id) {
		return false
	}
	done, ok := c.beginFetch(r.id)
	if !ok {
		return false // another worker is already fetching it
	}
	defer done()
	buf := make([]byte, r.size)
	n, _, err := r.h.fs.ReadAt(r.id.File, r.id.Index*r.h.segr.Size(), buf)
	if err != nil || n == 0 {
		return false
	}
	c.put(r.id, buf[:n])
	return true
}

// fetchPool is the comparators' prefetch engine: a bounded queue of
// predicted segments and the workers that fetch them.
type fetchPool struct {
	queue chan fetchReq
	wg    sync.WaitGroup

	mu      sync.Mutex // orders want's sends before stop's close
	stopped bool

	// skip, when set, drops a request as a worker takes it
	// (InMemOptimal's stale-index rule).
	skip func(fetchReq) bool
	// landed, when set, runs after a request's segment lands
	// (AppCentric's redundancy count).
	landed func(fetchReq)
}

// newFetchPool starts workers fetching from a queue of queueLen hints; a
// hint that finds the queue full is dropped, as a client's readahead
// drops what it cannot keep up with.
func newFetchPool(workers, queueLen int, skip func(fetchReq) bool, landed func(fetchReq)) *fetchPool {
	p := &fetchPool{queue: make(chan fetchReq, queueLen), skip: skip, landed: landed}
	p.wg.Add(workers)
	for range workers {
		go p.work()
	}
	return p
}

func (p *fetchPool) work() {
	defer p.wg.Done()
	for r := range p.queue {
		if p.skip != nil && p.skip(r) {
			continue
		}
		if fetch(r) && p.landed != nil {
			p.landed(r)
		}
	}
}

// want queues a prefetch of segment idx of h's file unless it is cached.
// A full queue, or a stopped pool, drops the hint.
func (p *fetchPool) want(h *cachedFile, idx int64) {
	r := h.request(idx)
	if h.cache.contains(r.id) {
		return
	}
	p.mu.Lock()
	if !p.stopped {
		select {
		case p.queue <- r:
		default:
		}
	}
	p.mu.Unlock()
}

// readahead wants the depth segments after idx, up to the file's end.
func (p *fetchPool) readahead(h *cachedFile, idx int64, depth int) {
	count := h.segr.Count(h.size)
	for next := idx + 1; next <= idx+int64(depth) && next < count; next++ {
		p.want(h, next)
	}
}

// stop lets the workers fetch what is queued and waits for them.
func (p *fetchPool) stop() {
	p.mu.Lock()
	if !p.stopped {
		p.stopped = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
