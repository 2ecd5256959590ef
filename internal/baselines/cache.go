package baselines

import (
	"container/list"
	"math"
	"sync"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
)

// EvictionPolicy selects how the prefetching cache chooses victims.
type EvictionPolicy int

// Cache eviction policies. LRFU (Lee et al. [51], the paper's stated
// inspiration for segment scoring) subsumes LRU and LFU through a
// combined recency-frequency value CRF(t) = Σ (1/2)^{λ(t-t_i)}: λ→1
// behaves like LRU, λ→0 like LFU.
const (
	EvictLRU EvictionPolicy = iota
	EvictLRFU
)

// lruCache is the in-memory prefetching cache the single-tier baselines
// share: capacity-bounded segment payloads with LRU eviction, charged
// against a device model. Unlike HFetch's score-driven exclusive tiers,
// entries are evicted purely by recency — which is exactly what produces
// the pollution and unwanted evictions the paper attributes to
// client-pull prefetchers.
type lruCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[seg.ID]*list.Element
	order    *list.List // front = most recent
	dev      *devsim.Device
	inflight map[seg.ID]chan struct{}

	policy EvictionPolicy
	lambda float64 // LRFU decay per second

	evictions int64
}

type lruEntry struct {
	id      seg.ID
	payload []byte
	crf     float64   // LRFU combined recency-frequency
	touched time.Time // last CRF fold time
}

func newLRUCache(capacity int64, dev *devsim.Device) *lruCache {
	return newCache(capacity, dev, EvictLRU, 0)
}

// newCache creates a cache with an explicit eviction policy. lambda is
// the LRFU decay rate per second (default 0.5 when zero).
func newCache(capacity int64, dev *devsim.Device, policy EvictionPolicy, lambda float64) *lruCache {
	if lambda <= 0 {
		lambda = 0.5
	}
	return &lruCache{
		capacity: capacity,
		entries:  make(map[seg.ID]*list.Element),
		order:    list.New(),
		dev:      dev,
		inflight: make(map[seg.ID]chan struct{}),
		policy:   policy,
		lambda:   lambda,
	}
}

// touch folds an entry's CRF forward to now and adds one access.
func (c *lruCache) touch(e *lruEntry) {
	now := time.Now()
	if !e.touched.IsZero() {
		dt := now.Sub(e.touched).Seconds()
		e.crf *= math.Exp2(-c.lambda * dt)
	}
	e.crf++
	e.touched = now
}

// evictVictim removes one entry according to the policy and returns its
// size; 0 when the cache is empty.
func (c *lruCache) evictVictim() int64 {
	if c.policy == EvictLRU {
		back := c.order.Back()
		if back == nil {
			return 0
		}
		ent := back.Value.(*lruEntry)
		c.order.Remove(back)
		delete(c.entries, ent.id)
		c.evictions++
		return int64(len(ent.payload))
	}
	// LRFU: evict the minimum-CRF entry (folded to a common instant).
	now := time.Now()
	var victim *list.Element
	best := math.Inf(1)
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry)
		crf := e.crf
		if !e.touched.IsZero() {
			crf *= math.Exp2(-c.lambda * now.Sub(e.touched).Seconds())
		}
		if crf < best {
			best, victim = crf, el
		}
	}
	if victim == nil {
		return 0
	}
	ent := victim.Value.(*lruEntry)
	c.order.Remove(victim)
	delete(c.entries, ent.id)
	c.evictions++
	return int64(len(ent.payload))
}

// beginFetch registers an in-flight fetch for id. ok is false when the
// segment is already being fetched (the caller should skip); otherwise
// the caller must invoke done() once the payload is in the cache (or the
// fetch failed).
func (c *lruCache) beginFetch(id seg.ID) (done func(), ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.inflight[id]; dup {
		return nil, false
	}
	ch := make(chan struct{})
	c.inflight[id] = ch
	return func() {
		c.mu.Lock()
		delete(c.inflight, id)
		c.mu.Unlock()
		close(ch)
	}, true
}

// waitFor blocks until an in-flight fetch of id completes; it reports
// false immediately when no fetch is in flight. Readers use it to join a
// prefetch that is about to land instead of issuing a duplicate origin
// read.
func (c *lruCache) waitFor(id seg.ID) bool {
	c.mu.Lock()
	ch, ok := c.inflight[id]
	c.mu.Unlock()
	if !ok {
		return false
	}
	<-ch
	return true
}

// get returns the payload and refreshes recency.
func (c *lruCache) get(id seg.ID) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.entries[id]
	var payload []byte
	if ok {
		c.order.MoveToFront(el)
		ent := el.Value.(*lruEntry)
		c.touch(ent)
		payload = ent.payload
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	if c.dev != nil {
		c.dev.Access(int64(len(payload)))
	}
	return payload, true
}

// contains reports residency without a device charge or recency bump.
func (c *lruCache) contains(id seg.ID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[id]
	return ok
}

// put inserts a payload, evicting LRU entries to fit. Payloads larger
// than the whole cache are ignored.
func (c *lruCache) put(id seg.ID, payload []byte) {
	size := int64(len(payload))
	if size > c.capacity {
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[id]; ok {
		old := el.Value.(*lruEntry)
		c.used += size - int64(len(old.payload))
		old.payload = payload
		c.touch(old)
		c.order.MoveToFront(el)
	} else {
		ent := &lruEntry{id: id, payload: payload}
		c.touch(ent)
		c.entries[id] = c.order.PushFront(ent)
		c.used += size
	}
	for c.used > c.capacity {
		freed := c.evictVictim()
		if freed == 0 {
			break
		}
		c.used -= freed
	}
	c.mu.Unlock()
	if c.dev != nil {
		c.dev.Access(size)
	}
}

// residentOf counts resident segments of the named file.
func (c *lruCache) residentOf(file string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		if el.Value.(*lruEntry).id.File == file {
			n++
		}
	}
	return n
}

// stats returns (bytes used, entry count, evictions so far).
func (c *lruCache) stats() (int64, int, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used, len(c.entries), c.evictions
}
