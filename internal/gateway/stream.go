package gateway

import (
	"sync"
)

// streamShards stripes the tracker so concurrent clients don't
// serialize on one mutex.
const streamShards = 16

// maxStreamsPerShard bounds tracker memory: when a shard fills, it is
// reset wholesale. Losing tracked streams only delays re-detection by
// one request; the bound matters more than the tail.
const maxStreamsPerShard = 4096

// streamTable detects per-client sequential range streams: it remembers
// the byte each (client, file) pair is expected to read next, and two
// consecutive requests within the window make a stream. The detected
// stream is the paper's sequencing signal as seen from outside the
// process — the gateway turns it into readahead hints.
type streamTable struct {
	window int64
	shards [streamShards]struct {
		mu sync.Mutex
		m  map[streamKey]*streamState
	}
}

type streamKey struct{ client, file string }

type streamState struct {
	next   int64 // offset the stream is expected to continue at
	streak int   // consecutive continuations observed
}

func newStreamTable(window int64) *streamTable {
	t := &streamTable{window: window}
	for i := range t.shards {
		t.shards[i].m = make(map[streamKey]*streamState)
	}
	return t
}

// note records one request and reports whether it continues a detected
// sequential stream (two or more back-to-back in-window ranges).
func (t *streamTable) note(client, file string, off, length int64) bool {
	key := streamKey{client, file}
	sh := &t.shards[fnv32(fnv32(offset32, client), file)%streamShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.m[key]
	if st == nil {
		if len(sh.m) >= maxStreamsPerShard {
			sh.m = make(map[streamKey]*streamState)
		}
		st = &streamState{}
		sh.m[key] = st
	}
	gap := off - st.next
	if st.streak > 0 && gap >= -t.window && gap <= t.window {
		st.streak++
	} else {
		st.streak = 1
	}
	st.next = off + length
	return st.streak >= 2
}

const offset32 = 2166136261

// fnv32 continues the FNV-1a hash h over s; the tracker key's two halves
// are chained through it for shard selection.
func fnv32(h uint32, s string) uint32 {
	const prime32 = 16777619
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}
