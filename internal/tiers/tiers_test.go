package tiers

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
	"hfetch/internal/invariant"
)

func id(f string, i int64) seg.ID { return seg.ID{File: f, Index: i} }

// resident copies a resident payload out through a pinned view (nil when
// the segment is not resident).
func resident(s *Store, id seg.ID) []byte {
	v, ok := s.View(id)
	if !ok {
		return nil
	}
	defer v.Release()
	return append([]byte(nil), v.Bytes()...)
}

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore("ram", 1024, nil)
	payload := []byte("hello segment")
	if err := s.Put(id("f", 0), payload); err != nil {
		t.Fatal(err)
	}
	if got := resident(s, id("f", 0)); !bytes.Equal(got, payload) {
		t.Fatalf("View = %q", got)
	}
}

func TestPutCopiesPayload(t *testing.T) {
	s := NewStore("ram", 1024, nil)
	payload := []byte{1, 2, 3}
	s.Put(id("f", 0), payload)
	payload[0] = 99
	if got := resident(s, id("f", 0)); got[0] != 1 {
		t.Fatal("Put must copy the payload")
	}
}

func TestCapacityEnforced(t *testing.T) {
	s := NewStore("ram", 10, nil)
	if err := s.Put(id("f", 0), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	err := s.Put(id("f", 1), make([]byte, 8))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if s.Used() != 8 || s.Capacity()-s.Used() != 2 {
		t.Fatalf("Used = %d of %d, want 8 of 10", s.Used(), s.Capacity())
	}
}

func TestReplaceAccountsDelta(t *testing.T) {
	s := NewStore("ram", 10, nil)
	s.Put(id("f", 0), make([]byte, 8))
	if err := s.Put(id("f", 0), make([]byte, 10)); err != nil {
		t.Fatalf("replacing with delta within capacity failed: %v", err)
	}
	if s.Used() != 10 {
		t.Fatalf("Used = %d, want 10", s.Used())
	}
}

func TestReadAt(t *testing.T) {
	s := NewStore("ram", 1024, nil)
	s.Put(id("f", 0), []byte("0123456789"))
	p := make([]byte, 4)
	n, _, err := s.ReadAt(id("f", 0), 3, p)
	if err != nil || n != 4 || string(p) != "3456" {
		t.Fatalf("ReadAt = %d %q %v", n, p, err)
	}
	// Short read at segment end.
	n, _, err = s.ReadAt(id("f", 0), 8, p)
	if err != nil || n != 2 || string(p[:n]) != "89" {
		t.Fatalf("short ReadAt = %d %q %v", n, p[:n], err)
	}
	if _, _, err := s.ReadAt(id("f", 0), 100, p); err == nil {
		t.Fatal("ReadAt beyond segment must error")
	}
	if _, _, err := s.ReadAt(id("x", 0), 0, p); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing segment err = %v, want ErrNotFound", err)
	}
}

func TestTakeFreesSpace(t *testing.T) {
	s := NewStore("ram", 10, nil)
	s.Put(id("f", 0), make([]byte, 10))
	b, err := s.TakeBuf(id("f", 0))
	if err != nil || b.Len() != 10 {
		t.Fatalf("TakeBuf = %v", err)
	}
	b.Release()
	if s.Used() != 0 || s.Has(id("f", 0)) {
		t.Fatal("TakeBuf must free space and remove the segment")
	}
	if _, err := s.TakeBuf(id("f", 0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second TakeBuf err = %v, want ErrNotFound", err)
	}
}

func TestDeleteAndDeleteFile(t *testing.T) {
	s := NewStore("ram", 100, nil)
	s.Put(id("a", 0), make([]byte, 10))
	s.Put(id("a", 1), make([]byte, 10))
	s.Put(id("b", 0), make([]byte, 10))
	if !s.Delete(id("a", 0)) || s.Delete(id("a", 0)) {
		t.Fatal("Delete semantics wrong")
	}
	if n := s.DeleteFile("a"); n != 1 {
		t.Fatalf("DeleteFile = %d, want 1", n)
	}
	if s.Used() != 10 || s.Len() != 1 {
		t.Fatalf("after deletes Used=%d Len=%d, want 10/1", s.Used(), s.Len())
	}
}

func TestSizeOfAndKeys(t *testing.T) {
	s := NewStore("ram", 100, nil)
	s.Put(id("a", 0), make([]byte, 7))
	if s.SizeOf(id("a", 0)) != 7 || s.SizeOf(id("a", 1)) != 0 {
		t.Fatal("SizeOf wrong")
	}
	if len(s.Keys()) != 1 {
		t.Fatal("Keys wrong")
	}
}

func TestClear(t *testing.T) {
	s := NewStore("ram", 100, nil)
	s.Put(id("a", 0), make([]byte, 7))
	s.Clear()
	if s.Used() != 0 || s.Len() != 0 {
		t.Fatal("Clear must empty the store")
	}
}

func TestDeviceChargedOnPutAndRead(t *testing.T) {
	dev := devsim.New(devsim.Profile{Name: "x", Latency: time.Millisecond}, 1)
	s := NewStore("ram", 1024, dev)
	s.Put(id("f", 0), make([]byte, 100))
	s.ReadAt(id("f", 0), 0, make([]byte, 100))
	ops, bytesMoved, _ := dev.Stats()
	if ops != 2 || bytesMoved != 200 {
		t.Fatalf("device stats = %d ops %d bytes, want 2/200", ops, bytesMoved)
	}
}

func TestHierarchyLocateAndByName(t *testing.T) {
	ram := NewStore("ram", 100, nil)
	nvme := NewStore("nvme", 100, nil)
	h := NewHierarchy(ram, nvme)
	nvme.Put(id("f", 3), make([]byte, 5))
	if got := h.Locate(id("f", 3)); got != 1 {
		t.Fatalf("Locate = %d, want 1", got)
	}
	if got := h.Locate(id("f", 9)); got != -1 {
		t.Fatalf("Locate missing = %d, want -1", got)
	}
	st, i := h.ByName("nvme")
	if st != nvme || i != 1 {
		t.Fatal("ByName wrong")
	}
	if st, i := h.ByName("zzz"); st != nil || i != -1 {
		t.Fatal("ByName missing wrong")
	}
	if h.Tier(0) != ram || h.Tier(5) != nil || h.Tier(-1) != nil {
		t.Fatal("Tier indexing wrong")
	}
}

func TestHierarchyExclusiveOK(t *testing.T) {
	ram := NewStore("ram", 100, nil)
	nvme := NewStore("nvme", 100, nil)
	h := NewHierarchy(ram, nvme)
	ram.Put(id("f", 0), make([]byte, 1))
	nvme.Put(id("f", 1), make([]byte, 1))
	if _, ok := h.ExclusiveOK(); !ok {
		t.Fatal("distinct segments must satisfy exclusivity")
	}
	nvme.Put(id("f", 0), make([]byte, 1))
	bad, ok := h.ExclusiveOK()
	if ok || bad != id("f", 0) {
		t.Fatalf("ExclusiveOK = %v %v, want violation on f#0", bad, ok)
	}
}

func TestHierarchyDeleteFileAndTotals(t *testing.T) {
	ram := NewStore("ram", 100, nil)
	nvme := NewStore("nvme", 100, nil)
	h := NewHierarchy(ram, nvme)
	ram.Put(id("f", 0), make([]byte, 4))
	nvme.Put(id("f", 1), make([]byte, 6))
	nvme.Put(id("g", 0), make([]byte, 2))
	if h.TotalUsed() != 12 {
		t.Fatalf("TotalUsed = %d, want 12", h.TotalUsed())
	}
	if n := h.DeleteFile("f"); n != 2 {
		t.Fatalf("DeleteFile = %d, want 2", n)
	}
	if h.TotalUsed() != 2 {
		t.Fatalf("TotalUsed after = %d, want 2", h.TotalUsed())
	}
}

func TestConcurrentPutGetDelete(t *testing.T) {
	s := NewStore("ram", 1<<20, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				sid := id("f", int64(rng.Intn(64)))
				switch rng.Intn(3) {
				case 0:
					s.Put(sid, make([]byte, rng.Intn(64)+1))
				case 1:
					resident(s, sid)
				default:
					s.Delete(sid)
				}
			}
		}(w)
	}
	wg.Wait()
	// Accounting invariant: used equals sum of resident sizes.
	var sum int64
	for _, k := range s.Keys() {
		sum += s.SizeOf(k)
	}
	if sum != s.Used() {
		t.Fatalf("accounting drift: sum=%d used=%d", sum, s.Used())
	}
}

// Property: used never exceeds capacity under arbitrary puts.
func TestUsedNeverExceedsCapacity(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := NewStore("ram", 4096, nil)
		for i, sz := range sizes {
			s.Put(id("f", int64(i)), make([]byte, int(sz%512)))
		}
		return s.Used() <= s.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPutOwnedTakesOwnership(t *testing.T) {
	// PutOwned stores the slice itself (no defensive copy): a caller
	// mutation after the handoff is visible, which is exactly the
	// contract — the mover's fetch/transfer path hands over buffers it
	// never touches again.
	s := NewStore("ram", 1024, nil)
	payload := []byte{1, 2, 3}
	if err := s.PutOwned(id("f", 0), payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 99
	if got := resident(s, id("f", 0)); got[0] != 99 {
		t.Fatal("PutOwned must take ownership of the slice, not copy it")
	}
}

func TestPutOwnedAccountingMatchesPut(t *testing.T) {
	s := NewStore("ram", 100, nil)
	if err := s.PutOwned(id("f", 0), make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 60 {
		t.Fatalf("Used = %d, want 60", s.Used())
	}
	// Replacing charges only the size delta.
	if err := s.PutOwned(id("f", 0), make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 80 {
		t.Fatalf("Used after replace = %d, want 80", s.Used())
	}
	err := s.PutOwned(id("f", 1), make([]byte, 40))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if s.Used() != 80 {
		t.Fatalf("failed PutOwned changed accounting: Used = %d", s.Used())
	}
}

func TestPutOwnedChargesDevice(t *testing.T) {
	dev := devsim.New(devsim.Profile{Name: "ram", BytesPerSec: 1 << 40, Channels: 1}, 1)
	s := NewStore("ram", 1024, dev)
	if err := s.PutOwned(id("f", 0), make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if ops, nbytes, _ := dev.Stats(); ops != 1 || nbytes != 64 {
		t.Fatalf("device saw %d ops / %d bytes, want 1 / 64", ops, nbytes)
	}
}

// TestDeleteFileAllocs: dropping a file's 32 resident segments, one
// file's worth at the usual grain, allocates nothing. The segments'
// Bufs are kept alive by the test and put back each round. Growing the
// list of dropped Bufs by append cost 6 per round.
func TestDeleteFileAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("allocation counts are for the production build")
	}
	const n = 32
	s := NewStore("ram", n*4096, nil)
	bufs := make([]*Buf, n)
	for i := range bufs {
		bufs[i] = NewBuf(SlabGet(4096))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i, b := range bufs {
			b.Retain() // the store's reference, which DeleteFile drops
			if err := s.PutBuf(id("f", int64(i)), b); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.DeleteFile("f"); got != n {
			t.Fatalf("DeleteFile dropped %d of %d", got, n)
		}
	})
	for _, b := range bufs {
		if b.Refs() != 1 {
			t.Fatalf("a dropped Buf holds %d refs, want the test's 1", b.Refs())
		}
		b.Release()
	}
	t.Logf("DeleteFile of %d segments: %.1f allocs", n, allocs)
	if allocs > 0 {
		t.Fatalf("DeleteFile of %d segments costs %.1f allocs, budget 0", n, allocs)
	}
}
