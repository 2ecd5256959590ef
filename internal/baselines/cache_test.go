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
