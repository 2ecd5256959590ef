package tiers

import (
	"sync/atomic"

	"hfetch/internal/invariant"
)

// Buf is a reference-counted segment payload: the unit of buffer
// ownership on the zero-copy read path. A Buf is created with one
// reference (the creator's — usually the Store's residency reference);
// readers pin the payload with Retain (via Store.View / Store.ReadVec)
// and drop the pin with Release. The last release frees the underlying
// buffer back to the slab, so eviction and overwrite never recycle
// bytes under a pinned reader — they just drop the store's reference
// and defer the free to the refcount.
//
// The payload bytes are immutable once the Buf is resident (WORM data:
// a written file is invalidated, never patched in place), which is what
// makes sharing one buffer across concurrent readers sound.
type Buf struct {
	data []byte
	refs atomic.Int32
}

// NewBuf wraps payload in a Buf holding one reference, transferring
// ownership of the slice: the caller must not retain or free it.
func NewBuf(payload []byte) *Buf {
	b := &Buf{data: payload}
	b.refs.Store(1)
	return b
}

// Bytes returns the payload. Valid only while the caller holds a
// reference; callers must not mutate it.
func (b *Buf) Bytes() []byte { return b.data }

// Len returns the payload length in bytes.
func (b *Buf) Len() int64 { return int64(len(b.data)) }

// Retain adds a reference. The caller must already hold one (a Buf
// resurrected from zero references is a recycled-buffer bug).
func (b *Buf) Retain() {
	n := b.refs.Add(1)
	if invariant.Enabled {
		invariant.Assert(n > 1, "buf retained from %d references", n-1)
	}
}

// Release drops one reference; the last release poisons (under
// -tags hfetch_invariants) and frees the payload to the slab. The
// caller must not touch Bytes afterwards.
func (b *Buf) Release() {
	n := b.refs.Add(-1)
	if invariant.Enabled {
		invariant.Assert(n >= 0, "buf over-released to %d references", n)
	}
	if n == 0 {
		data := b.data
		b.data = nil
		SlabPut(data)
	}
}

// Refs returns the current reference count (tests and invariant checks
// only — the value is stale the moment it is read).
func (b *Buf) Refs() int32 { return b.refs.Load() }
