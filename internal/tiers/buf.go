package tiers

import (
	"fmt"
	"runtime"
	"strings"
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
// and defer the free to the refcount. Nothing else frees the payload:
// it is slab memory, which the collector does not see, so a reference
// that is dropped without Release strands its bytes for the life of the
// process (under -tags hfetch_invariants the collector reports it).
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
	if invariant.Enabled {
		// The creator's stack rides in the finalizer's closure (by value:
		// one allocation), not in the Buf, whose layout the default build
		// shares.
		var stack [8]uintptr
		depth := runtime.Callers(2, stack[:])
		pcs := stack
		runtime.SetFinalizer(b, func(b *Buf) {
			if n := b.refs.Load(); n > 0 {
				bufLeaked(fmt.Sprintf("buf of %d bytes collected holding %d references, created at%s", len(b.data), n, stackOf(pcs, depth)))
			}
		})
	}
	return b
}

// bufLeaked reports a Buf the collector found unreachable with
// references outstanding: its payload is stranded in the slab
// (invariant builds only; a test swaps it).
var bufLeaked = func(msg string) { invariant.Assert(false, "%s", msg) }

func stackOf(pcs [8]uintptr, depth int) string {
	var sb strings.Builder
	for frames := runtime.CallersFrames(pcs[:depth]); ; {
		f, more := frames.Next()
		fmt.Fprintf(&sb, "\n\t%s (%s:%d)", f.Function, f.File, f.Line)
		if !more {
			return sb.String()
		}
	}
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
