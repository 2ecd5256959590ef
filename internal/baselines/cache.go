package baselines

import (
	"container/list"
	"sync"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
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

	evictions int64
}

type lruEntry struct {
	id      seg.ID
	payload []byte
}

func newLRUCache(capacity int64, dev *devsim.Device) *lruCache {
	return &lruCache{
		capacity: capacity,
		entries:  make(map[seg.ID]*list.Element),
		order:    list.New(),
		dev:      dev,
		inflight: make(map[seg.ID]chan struct{}),
	}
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
		payload = el.Value.(*lruEntry).payload
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

// put inserts a payload, evicting least recently used entries to fit. Payloads larger
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
		c.order.MoveToFront(el)
	} else {
		c.entries[id] = c.order.PushFront(&lruEntry{id: id, payload: payload})
		c.used += size
	}
	for c.used > c.capacity {
		victim := c.order.Remove(c.order.Back()).(*lruEntry)
		delete(c.entries, victim.id)
		c.used -= int64(len(victim.payload))
		c.evictions++
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
