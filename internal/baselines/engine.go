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

// rule is a comparator's prediction rule, a value over its own state:
// told that a handle of app served segment id of a file of segs
// segments, it appends to dst the segments it wants fetched next. A
// rule never blocks, reads no clock and holds no lock; the engine calls
// it under its substrate's mu.
type rule interface {
	next(dst []seg.ID, app string, id seg.ID, segs int64) []seg.ID
}

// substrate is what every comparator reads through: the PFS, the
// segment grain, the read statistics its handles record into and its
// prediction rule.
type substrate struct {
	name  string
	fs    *pfs.FS
	segr  *seg.Segmenter
	stats *telemetry.ReadStats

	mu    sync.Mutex // serialises rule and guards wants
	rule  rule
	wants []seg.ID // the rule's last answer, reused
}

func newSubstrate(name string, fs *pfs.FS, segSize int64, r rule) substrate {
	if segSize <= 0 {
		segSize = seg.DefaultSize
	}
	return substrate{name: name, fs: fs, segr: seg.NewSegmenter(segSize), stats: telemetry.NewReadStats(), rule: r}
}

// Name implements System.
func (s *substrate) Name() string { return s.name }

// Stats implements System.
func (s *substrate) Stats() *telemetry.ReadStats { return s.stats }

// open returns app's handle on file that reads through cache and sends
// what the rule predicts after each served segment to pool.
func (s *substrate) open(app, file string, cache *lruCache, pool *fetchPool) (Handle, error) {
	size, err := statFile(s.fs, s.name, file)
	if err != nil {
		return nil, err
	}
	return &cachedFile{substrate: s, app: app, file: file, size: size, cache: cache, pool: pool}, nil
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
	app   string
	file  string
	size  int64
	cache *lruCache
	pool  *fetchPool

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
		h.predict(id)
	}
	h.stats.ObserveRead(time.Since(start))
	return int(n), nil
}

// predict hands served segment id to the rule and wants what it answers.
func (h *cachedFile) predict(id seg.ID) {
	h.mu.Lock()
	h.wants = h.rule.next(h.wants[:0], h.app, id, h.segr.Count(h.size))
	for _, w := range h.wants {
		h.pool.want(h.cache, w)
	}
	h.mu.Unlock()
}

// Close implements Handle; a handle holds nothing to release.
func (h *cachedFile) Close() error { return nil }

// fetchReq asks for segment id to be brought into cache.
type fetchReq struct {
	cache *lruCache
	id    seg.ID
}

// fetchPool is the comparators' prefetch engine: a bounded queue of
// predicted segments and the workers that fetch them.
type fetchPool struct {
	src   *substrate
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

// newFetchPool starts workers fetching from s's PFS through a queue of
// queueLen hints; a hint that finds the queue full is dropped, as a
// client's readahead drops what it cannot keep up with.
func newFetchPool(s *substrate, workers, queueLen int, skip func(fetchReq) bool, landed func(fetchReq)) *fetchPool {
	p := &fetchPool{src: s, queue: make(chan fetchReq, queueLen), skip: skip, landed: landed}
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
		if p.fetch(r) && p.landed != nil {
			p.landed(r)
		}
	}
}

// fetch reads r's segment from the PFS into its cache unless it is there
// or already on its way; it reports whether this call landed it.
func (p *fetchPool) fetch(r fetchReq) bool {
	c := r.cache
	if c.contains(r.id) {
		return false
	}
	done, ok := c.beginFetch(r.id)
	if !ok {
		return false // another worker is already fetching it
	}
	defer done()
	size := p.src.segr.Size()
	buf := make([]byte, size)
	n, _, err := p.src.fs.ReadAt(r.id.File, r.id.Index*size, buf)
	if err != nil || n == 0 {
		return false
	}
	c.put(r.id, buf[:n])
	return true
}

// want queues a prefetch of segment id into cache unless it is cached
// there. A full queue, or a stopped pool, drops the hint.
func (p *fetchPool) want(cache *lruCache, id seg.ID) {
	if cache.contains(id) {
		return
	}
	p.mu.Lock()
	if !p.stopped {
		select {
		case p.queue <- fetchReq{cache: cache, id: id}:
		default:
		}
	}
	p.mu.Unlock()
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

// readahead is the readahead prefetchers' rule: the next depth segments
// of the file, up to its end.
type readahead int

func (d readahead) next(dst []seg.ID, _ string, id seg.ID, segs int64) []seg.ID {
	for i := id.Index + 1; i <= id.Index+int64(d) && i < segs; i++ {
		dst = append(dst, seg.ID{File: id.File, Index: i})
	}
	return dst
}
