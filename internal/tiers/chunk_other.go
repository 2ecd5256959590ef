//go:build !linux

package tiers

// mapChunk is the slab's chunk source where the standard library offers
// no anonymous mapping it can also hand pages back from (mmap without
// madvise would only ever grow): the same free lists sit over chunks of
// the Go heap, which the lists keep reachable for the life of the
// process.
func mapChunk(n int) []byte { return make([]byte, n) }

// dropPages is nil: heap chunks have no pages of their own to give back.
var dropPages func([]byte)
