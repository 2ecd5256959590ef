package baselines

import (
	"testing"
	"time"

	"hfetch/internal/core/seg"
)

func cid(i int64) seg.ID { return seg.ID{File: "f", Index: i} }

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRUCache(3, nil)
	for i := int64(0); i < 3; i++ {
		c.put(cid(i), []byte{byte(i)})
	}
	c.get(cid(0)) // refresh 0
	c.put(cid(3), []byte{3})
	if c.contains(cid(1)) {
		t.Fatal("LRU must evict the least recently used (1)")
	}
	if !c.contains(cid(0)) || !c.contains(cid(3)) {
		t.Fatal("refreshed and new entries must survive")
	}
}

func TestLRFUKeepsFrequentOverRecent(t *testing.T) {
	c := newCache(2, nil, EvictLRFU, 0.5)
	// Entry 0 accessed many times; entry 1 accessed once, more recently.
	c.put(cid(0), []byte{0})
	for i := 0; i < 10; i++ {
		c.get(cid(0))
	}
	c.put(cid(1), []byte{1})
	// Insert 2: LRFU evicts the low-CRF entry 1, not the frequent 0
	// (plain LRU would evict 0, the least *recently* used).
	c.put(cid(2), []byte{2})
	if !c.contains(cid(0)) {
		t.Fatal("LRFU must keep the frequent entry")
	}
	if c.contains(cid(1)) {
		t.Fatal("LRFU must evict the one-shot entry")
	}
}

func TestLRFUDecayForgetsStaleFrequency(t *testing.T) {
	c := newCache(2, nil, EvictLRFU, 50) // aggressive decay for the test
	c.put(cid(0), []byte{0})
	for i := 0; i < 10; i++ {
		c.get(cid(0))
	}
	time.Sleep(120 * time.Millisecond) // CRF of 0 decays hard
	c.put(cid(1), []byte{1})
	c.get(cid(1))
	c.put(cid(2), []byte{2})
	if c.contains(cid(0)) && !c.contains(cid(1)) {
		t.Fatal("decayed frequency must not outrank fresh accesses")
	}
}

func TestCacheRejectsOversizedPayload(t *testing.T) {
	c := newLRUCache(4, nil)
	c.put(cid(0), []byte{1, 2, 3, 4, 5})
	if c.contains(cid(0)) {
		t.Fatal("payload larger than the cache must be ignored")
	}
}

func TestBeginFetchDeduplicates(t *testing.T) {
	c := newLRUCache(16, nil)
	done, ok := c.beginFetch(cid(0))
	if !ok {
		t.Fatal("first beginFetch must succeed")
	}
	if _, ok := c.beginFetch(cid(0)); ok {
		t.Fatal("concurrent beginFetch must be rejected")
	}
	waited := make(chan bool, 1)
	go func() { waited <- c.waitFor(cid(0)) }()
	time.Sleep(5 * time.Millisecond)
	c.put(cid(0), []byte{1})
	done()
	if !<-waited {
		t.Fatal("waitFor must report an in-flight fetch")
	}
	if c.waitFor(cid(0)) {
		t.Fatal("waitFor with nothing in flight must return false")
	}
}
