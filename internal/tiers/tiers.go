// Package tiers implements the prefetching cache stores that make up the
// deep memory and storage hierarchy (DMSH): a RAM allocation, a
// node-local NVMe partition, and a shared burst-buffer lease. Each Store
// is a capacity-tracked, exclusive segment cache charged against a
// devsim.Device; a Hierarchy orders stores fast→slow and is what the
// hierarchical data placement engine walks.
//
// Payloads are reference-counted (see Buf): the store holds one
// residency reference, readers pin resident bytes with View/ReadVec and
// serve them without copying, and eviction or overwrite merely drops the
// store's reference — the last releaser frees the buffer back to the
// slab allocator (slab.go), so a pinned buffer is never recycled under a
// reader.
package tiers

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
)

// ErrNoSpace is returned by Put when a segment does not fit in the
// store's remaining capacity.
var ErrNoSpace = errors.New("tiers: insufficient capacity")

// ErrNotFound is returned when a requested segment is not resident.
var ErrNotFound = errors.New("tiers: segment not resident")

// RoomWaiter is what a fill that found a store full leaves at its door
// (PutBufWait): the next release that makes room in s — TakeBuf, Delete,
// DeleteFile, Clear — calls RoomMade once, on the releasing goroutine with
// no store lock held, and forgets the waiter. Whether the room is enough is
// the waiter's to find out by trying again. A waiter is known by its
// identity: implement it on a pointer.
type RoomWaiter interface {
	RoomMade(s *Store)
}

// Store is one tier's prefetching cache. Safe for concurrent use.
type Store struct {
	name     string
	dev      *devsim.Device
	capacity int64

	mu   sync.RWMutex
	data map[seg.ID]*Buf
	used int64
	// waiters are the fills refused for want of room since the last
	// release; empty (and never looked at twice) when nobody waits.
	waiters []RoomWaiter

	hits   int64
	misses int64
}

// NewStore creates a store named name with the given byte capacity whose
// accesses are charged to dev (nil dev = free accesses).
//
// The residents are slab memory, which no collector frees: whoever owns
// the store calls Clear when it is done with it (Server.Stop and
// Cluster.Stop do). A store that is simply dropped gives back what it
// still holds when the collector finds it unreachable.
func NewStore(name string, capacity int64, dev *devsim.Device) *Store {
	s := &Store{name: name, dev: dev, capacity: capacity, data: make(map[seg.ID]*Buf)}
	runtime.SetFinalizer(s, (*Store).Clear)
	return s
}

// Name returns the tier name (e.g. "ram").
func (s *Store) Name() string { return s.name }

// Device returns the tier's device model (may be nil).
func (s *Store) Device() *devsim.Device { return s.dev }

// Capacity returns the configured capacity in bytes.
func (s *Store) Capacity() int64 { return s.capacity }

// Used returns the bytes currently resident.
func (s *Store) Used() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// Len returns the number of resident segments.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Put stores a segment payload, charging the device for the write. The
// payload is copied (into a slab buffer). Returns ErrNoSpace when it
// does not fit; replacing an existing segment accounts only the size
// delta.
func (s *Store) Put(id seg.ID, payload []byte) error {
	cp := SlabGet(int64(len(payload)))
	copy(cp, payload)
	if err := s.PutOwned(id, cp); err != nil {
		SlabPut(cp)
		return err
	}
	return nil
}

// PutOwned stores a segment payload without copying: on success the
// store takes ownership of payload, so the caller must not retain,
// mutate or free the slice afterwards; on error it is still the
// caller's to free. This is the data-movement hot path — ioclient's
// fetch chain hands freshly slab-drawn buffers straight in — where Put's
// defensive copy would double the bytes touched. Accounting and device
// charging match Put exactly.
func (s *Store) PutOwned(id seg.ID, payload []byte) error {
	b := NewBuf(payload)
	err := s.PutBuf(id, b)
	if err != nil {
		// The payload stays the caller's: the wrapper dies empty-handed.
		b.data = nil
		b.refs.Store(0)
	}
	return err
}

// PutBuf installs a reference-counted payload, adopting the caller's
// reference (on success the store owns it; on error the caller still
// does). Transfers between tiers move the Buf itself so a reader pinned
// through the move keeps one coherent refcount.
func (s *Store) PutBuf(id seg.ID, b *Buf) error { return s.PutBufWait(id, b, nil) }

// PutBufWait is PutBuf for a caller that can wait for room with the payload
// in hand: when b is refused with ErrNoSpace, w (if non-nil) is left at the
// door in the same critical section as the refusal, so no release between
// the two is missed. A waiter is registered once however often it is
// refused.
func (s *Store) PutBufWait(id seg.ID, b *Buf, w RoomWaiter) error {
	size := b.Len()
	s.mu.Lock()
	old, had := s.data[id]
	delta := size
	if had {
		delta -= old.Len()
	}
	if s.used+delta > s.capacity {
		if w != nil && !slices.Contains(s.waiters, w) {
			s.waiters = append(s.waiters, w)
		}
		s.mu.Unlock()
		return ErrNoSpace
	}
	s.data[id] = b
	s.used += delta
	s.mu.Unlock()
	if had {
		// The store's reference to the replaced payload; a pinned reader
		// keeps the old bytes alive until its own release.
		old.Release()
	}
	if s.dev != nil {
		s.dev.Access(size)
	}
	return nil
}

// ReadAt copies min(len(p), len(seg)-off) bytes from offset off within
// the resident segment into p, charging the device for the bytes read.
func (s *Store) ReadAt(id seg.ID, off int64, p []byte) (int, time.Duration, error) {
	s.mu.RLock()
	b, ok := s.data[id]
	if ok {
		b.Retain()
	}
	s.mu.RUnlock()
	if !ok {
		return 0, 0, ErrNotFound
	}
	data := b.Bytes()
	if off < 0 || off >= int64(len(data)) {
		b.Release()
		return 0, 0, fmt.Errorf("tiers: offset %d out of segment of %d bytes", off, len(data))
	}
	n := copy(p, data[off:])
	CountCopied(int64(n))
	b.Release()
	var cost time.Duration
	if s.dev != nil {
		cost = s.dev.Access(int64(n))
	}
	return n, cost, nil
}

// View pins the resident payload of id and returns it without copying.
// The caller reads via Bytes and must Release exactly once; the payload
// stays valid — even across eviction, overwrite or file invalidation —
// until that release. No device charge is made here: callers charge the
// bytes they actually serve (see ChargeRead).
func (s *Store) View(id seg.ID) (*Buf, bool) {
	s.mu.RLock()
	b, ok := s.data[id]
	if ok {
		b.Retain()
	}
	s.mu.RUnlock()
	return b, ok
}

// ReadVec pins every resident segment of ids under ONE lock acquisition:
// out[i] receives the pinned view for ids[i], or stays nil when the
// segment is not resident. The device is charged once for the total
// pinned bytes — one vectored access instead of len(ids) seeks — which
// is the lock- and device-level half of the zero-copy range read. The
// caller must Release every non-nil view exactly once.
func (s *Store) ReadVec(ids []seg.ID, out []*Buf) (found int, bytes int64) {
	if len(ids) > len(out) {
		ids = ids[:len(out)]
	}
	s.mu.RLock()
	for i, id := range ids {
		if b, ok := s.data[id]; ok {
			b.Retain()
			out[i] = b
			found++
			bytes += b.Len()
		}
	}
	s.mu.RUnlock()
	if found > 0 && s.dev != nil {
		s.dev.Access(bytes)
	}
	return found, bytes
}

// ChargeRead charges the device for n bytes served from a pinned view
// (View does not charge; ReadVec charges its whole batch up front).
func (s *Store) ChargeRead(n int64) time.Duration {
	if s.dev == nil || n <= 0 {
		return 0
	}
	return s.dev.Access(n)
}

// TakeBuf removes the segment and returns its payload with the store's
// reference transferred to the caller (used when demoting: the read cost
// is charged, the space is freed atomically, and a reader pinned through
// the move keeps the same refcount). The caller must either install the
// Buf elsewhere (PutBuf) or Release it.
func (s *Store) TakeBuf(id seg.ID) (*Buf, error) {
	var door [4]RoomWaiter
	var woken []RoomWaiter
	s.mu.Lock()
	b, ok := s.data[id]
	if ok {
		delete(s.data, id)
		s.used -= b.Len()
		woken = s.wakeLocked(&door)
	}
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	s.signal(woken)
	if s.dev != nil {
		s.dev.Access(b.Len())
	}
	return b, nil
}

// Delete drops a segment without charging the device (metadata-only
// eviction, e.g. invalidation after a write event). Reports whether the
// segment was resident. A pinned payload survives until its readers
// release; only the store's reference — and the capacity charge — go
// now.
func (s *Store) Delete(id seg.ID) bool {
	var door [4]RoomWaiter
	var woken []RoomWaiter
	s.mu.Lock()
	b, ok := s.data[id]
	if ok {
		delete(s.data, id)
		s.used -= b.Len()
		woken = s.wakeLocked(&door)
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	b.Release()
	s.signal(woken)
	return true
}

// wakeLocked empties the door into buf's backing array (s.mu held): the
// waiters the caller signals once it has dropped the lock.
func (s *Store) wakeLocked(buf *[4]RoomWaiter) []RoomWaiter {
	if len(s.waiters) == 0 {
		return nil
	}
	woken := append(buf[:0], s.waiters...)
	clear(s.waiters)
	s.waiters = s.waiters[:0]
	return woken
}

func (s *Store) signal(woken []RoomWaiter) {
	for _, w := range woken {
		w.RoomMade(s)
	}
}

// DeleteFile drops every resident segment of the named file and returns
// how many were dropped.
func (s *Store) DeleteFile(file string) int {
	var door [4]RoomWaiter
	dropped := make([]*Buf, 0, 32) // on the stack: one file at the usual grain
	s.mu.Lock()
	for id, b := range s.data {
		if id.File == file {
			delete(s.data, id)
			s.used -= b.Len()
			dropped = append(dropped, b)
		}
	}
	var woken []RoomWaiter
	if len(dropped) > 0 {
		woken = s.wakeLocked(&door)
	}
	s.mu.Unlock()
	for _, b := range dropped {
		b.Release()
	}
	s.signal(woken)
	return len(dropped)
}

// Has reports whether the segment is resident.
func (s *Store) Has(id seg.ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.data[id]
	return ok
}

// SizeOf returns the resident payload size of id, or 0 when absent.
func (s *Store) SizeOf(id seg.ID) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if b, ok := s.data[id]; ok {
		return b.Len()
	}
	return 0
}

// Keys returns the IDs of all resident segments (unordered).
func (s *Store) Keys() []seg.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]seg.ID, 0, len(s.data))
	for id := range s.data {
		out = append(out, id)
	}
	return out
}

// Clear removes everything without device charges: the store's
// references go now, a pinned payload when its last reader releases.
func (s *Store) Clear() {
	var door [4]RoomWaiter
	s.mu.Lock()
	old := s.data
	s.data = make(map[seg.ID]*Buf)
	s.used = 0
	woken := s.wakeLocked(&door)
	s.mu.Unlock()
	for _, b := range old {
		b.Release()
	}
	s.signal(woken)
}

// Hierarchy is an ordered list of tier stores, fastest first. The PFS is
// not a member: it is the origin below the last tier.
type Hierarchy struct {
	stores []*Store
}

// NewHierarchy builds a hierarchy from stores ordered fastest first.
func NewHierarchy(stores ...*Store) *Hierarchy {
	return &Hierarchy{stores: stores}
}

// Stores returns the tiers in order, fastest first.
func (h *Hierarchy) Stores() []*Store { return h.stores }

// Len returns the number of tiers.
func (h *Hierarchy) Len() int { return len(h.stores) }

// Tier returns the i-th store (0 = fastest), nil when out of range.
func (h *Hierarchy) Tier(i int) *Store {
	if i < 0 || i >= len(h.stores) {
		return nil
	}
	return h.stores[i]
}

// ByName returns the store with the given name and its index, or nil, -1.
func (h *Hierarchy) ByName(name string) (*Store, int) {
	for i, s := range h.stores {
		if s.name == name {
			return s, i
		}
	}
	return nil, -1
}

// Locate finds which tier holds id; returns the index or -1.
func (h *Hierarchy) Locate(id seg.ID) int {
	for i, s := range h.stores {
		if s.Has(id) {
			return i
		}
	}
	return -1
}

// ExclusiveOK verifies the exclusive-cache invariant: no segment resident
// in more than one tier. It returns the first violating ID, if any.
func (h *Hierarchy) ExclusiveOK() (seg.ID, bool) {
	seen := make(map[seg.ID]struct{})
	for _, s := range h.stores {
		for _, id := range s.Keys() {
			if _, dup := seen[id]; dup {
				return id, false
			}
			seen[id] = struct{}{}
		}
	}
	return seg.ID{}, true
}

// TotalUsed returns bytes resident across all tiers.
func (h *Hierarchy) TotalUsed() int64 {
	var t int64
	for _, s := range h.stores {
		t += s.Used()
	}
	return t
}

// DeleteFile invalidates a file across every tier, returning the number
// of segments dropped.
func (h *Hierarchy) DeleteFile(file string) int {
	n := 0
	for _, s := range h.stores {
		n += s.DeleteFile(file)
	}
	return n
}
