package tiers

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hfetch/internal/core/seg"
	"hfetch/internal/invariant"
)

// fillFor returns a deterministic, never-poison fill byte for a
// generation (1..100, well clear of slabPoison = 0xDB), so a reader
// observing a recycled buffer under -tags hfetch_invariants sees the
// poison pattern and fails the all-bytes-equal check.
func fillFor(gen int) byte { return byte(gen%100) + 1 }

func filled(n int, b byte) []byte {
	p := SlabGet(int64(n))
	for i := range p {
		p[i] = b
	}
	return p
}

// The counters are the process's: a store an earlier test dropped may be
// cleared by the collector meanwhile, so the deltas are lower bounds
// (slab_test.go holds a slab of its own to exact figures).
func TestSlabClassesAndStats(t *testing.T) {
	before := ReadSlabStats()
	b := SlabGet(5000)
	if len(b) != 5000 || cap(b) != 8192 {
		t.Fatalf("SlabGet(5000): len %d cap %d, want 5000/8192", len(b), cap(b))
	}
	SlabPut(b)
	after := ReadSlabStats()
	if after.Gets < before.Gets+1 || after.Puts < before.Puts+1 {
		t.Fatalf("stats delta gets/puts = %d/%d, want 1/1",
			after.Gets-before.Gets, after.Puts-before.Puts)
	}

	// Oversize: plain allocation, never pooled.
	big := SlabGet((8 << 20) + 1)
	if len(big) != (8<<20)+1 {
		t.Fatalf("oversize len = %d", len(big))
	}
	SlabPut(big)
	s := ReadSlabStats()
	if s.Dropped < after.Dropped+1 {
		t.Fatalf("oversize free not dropped (dropped %d -> %d)", after.Dropped, s.Dropped)
	}

	// A foreign buffer with a non-class capacity is dropped too.
	SlabPut(make([]byte, 100))
	if got := ReadSlabStats().Dropped; got < s.Dropped+1 {
		t.Fatalf("foreign free not dropped (dropped %d -> %d)", s.Dropped, got)
	}
}

func TestBufRefcountLifecycle(t *testing.T) {
	b := NewBuf(filled(64, 7))
	if got := b.Refs(); got != 1 {
		t.Fatalf("fresh refcount = %d, want 1", got)
	}
	b.Retain()
	b.Release()
	if b.Bytes() == nil {
		t.Fatal("payload freed while a reference remains")
	}
	b.Release()
	if b.Bytes() != nil {
		t.Fatal("payload not freed at the last release")
	}
}

func TestPoisonOnFree(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("needs -tags hfetch_invariants")
	}
	b := NewBuf(filled(64, 7))
	data := b.Bytes()
	b.Release()
	for i, c := range data[:cap(data)] {
		if c != slabPoison {
			t.Fatalf("byte %d = %#x after free, want poison %#x", i, c, slabPoison)
		}
	}
}

func TestViewPinsAcrossEviction(t *testing.T) {
	s := NewStore("ram", 1<<20, nil)
	id := seg.ID{File: "f", Index: 0}
	want := bytes.Repeat([]byte{9}, 4096)
	if err := s.Put(id, want); err != nil {
		t.Fatal(err)
	}
	v, ok := s.View(id)
	if !ok {
		t.Fatal("View: not resident")
	}
	if !s.Delete(id) {
		t.Fatal("Delete: not resident")
	}
	if s.Used() != 0 {
		t.Fatalf("Used = %d after delete, want 0 (capacity freed immediately)", s.Used())
	}
	if !bytes.Equal(v.Bytes(), want) {
		t.Fatal("pinned bytes changed under an eviction")
	}
	v.Release()
}

func TestViewPinsAcrossOverwrite(t *testing.T) {
	s := NewStore("ram", 1<<20, nil)
	id := seg.ID{File: "f", Index: 0}
	if err := s.Put(id, bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	v, _ := s.View(id)
	if err := s.Put(id, bytes.Repeat([]byte{2}, 4096)); err != nil {
		t.Fatal(err)
	}
	for _, c := range v.Bytes() {
		if c != 1 {
			t.Fatalf("pinned view observed overwrite (byte %#x)", c)
		}
	}
	v.Release()
	if got := resident(s, id); got == nil || got[0] != 2 {
		t.Fatalf("store serves %v, want new generation", got)
	}
}

func TestTakeBufMovesPinCoherently(t *testing.T) {
	src := NewStore("ram", 1<<20, nil)
	dst := NewStore("nvme", 1<<20, nil)
	id := seg.ID{File: "f", Index: 3}
	want := bytes.Repeat([]byte{5}, 8192)
	if err := src.Put(id, want); err != nil {
		t.Fatal(err)
	}
	v, _ := src.View(id)
	b, err := src.TakeBuf(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.PutBuf(id, b); err != nil {
		t.Fatal(err)
	}
	if src.Has(id) || !dst.Has(id) {
		t.Fatal("TakeBuf/PutBuf did not move residency")
	}
	// The reader pinned through the move still sees coherent bytes, and
	// even evicting from the destination cannot recycle them.
	dst.Delete(id)
	if !bytes.Equal(v.Bytes(), want) {
		t.Fatal("pinned bytes torn by a tier-to-tier move")
	}
	v.Release()
}

func TestReadVecPinsUnderOneAcquisition(t *testing.T) {
	s := NewStore("ram", 1<<20, nil)
	ids := make([]seg.ID, 5)
	for i := range ids {
		ids[i] = seg.ID{File: "f", Index: int64(i)}
	}
	for _, i := range []int{0, 2, 4} {
		if err := s.Put(ids[i], bytes.Repeat([]byte{byte(10 + i)}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]*Buf, 5)
	found, total := s.ReadVec(ids, out)
	if found != 3 || total != 3*4096 {
		t.Fatalf("ReadVec = (%d, %d), want (3, %d)", found, total, 3*4096)
	}
	for i, b := range out {
		resident := i%2 == 0
		if (b != nil) != resident {
			t.Fatalf("out[%d] pinned=%v, want %v", i, b != nil, resident)
		}
		if b != nil {
			if b.Bytes()[0] != byte(10+i) {
				t.Fatalf("out[%d] wrong payload", i)
			}
			b.Release()
		}
	}
}

// TestPinVsEvictionStress races readers holding views against
// overwrites (supersession), eviction, tier-to-tier moves, and
// invalidating whole-file deletes. Every pinned view must stay
// byte-stable for as long as it is held: a reader observing a mix of
// fill values — or the 0xDB poison under -tags hfetch_invariants — has
// caught a recycled buffer. Run with -race.
func TestPinVsEvictionStress(t *testing.T) {
	const (
		segSize  = 4096
		nSegs    = 16
		nReaders = 4
		rounds   = 400
	)
	ram := NewStore("ram", nSegs*segSize*2, nil)
	nvme := NewStore("nvme", nSegs*segSize*2, nil)
	var stop atomic.Bool
	var muts, readers sync.WaitGroup

	idOf := func(i int) seg.ID { return seg.ID{File: "f", Index: int64(i % nSegs)} }

	// Writer: supersede segments with a fresh generation fill.
	muts.Add(1)
	go func() {
		defer muts.Done()
		rng := rand.New(rand.NewSource(1))
		for g := 0; !stop.Load(); g++ {
			p := filled(segSize, fillFor(g))
			if err := ram.PutOwned(idOf(rng.Intn(nSegs)), p); err != nil {
				SlabPut(p)
			}
		}
	}()

	// Mover: demote/promote between the two stores, moving the Buf.
	muts.Add(1)
	go func() {
		defer muts.Done()
		rng := rand.New(rand.NewSource(2))
		for !stop.Load() {
			src, dst := ram, nvme
			if rng.Intn(2) == 0 {
				src, dst = nvme, ram
			}
			id := idOf(rng.Intn(nSegs))
			if b, err := src.TakeBuf(id); err == nil {
				if dst.PutBuf(id, b) != nil {
					b.Release()
				}
			}
		}
	}()

	// Evictor + invalidator.
	muts.Add(1)
	go func() {
		defer muts.Done()
		rng := rand.New(rand.NewSource(3))
		for i := 0; !stop.Load(); i++ {
			if i%50 == 49 {
				ram.DeleteFile("f")
				nvme.DeleteFile("f")
				continue
			}
			st := ram
			if rng.Intn(2) == 0 {
				st = nvme
			}
			st.Delete(idOf(rng.Intn(nSegs)))
		}
	}()

	// Readers: pin views (singly and vectored) and verify stability.
	errs := make(chan string, 2*nReaders)
	for r := 0; r < nReaders; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			ids := make([]seg.ID, nSegs)
			for i := range ids {
				ids[i] = idOf(i)
			}
			out := make([]*Buf, nSegs)
			for k := 0; k < rounds; k++ {
				if k%2 == 0 {
					st := ram
					if rng.Intn(2) == 0 {
						st = nvme
					}
					v, ok := st.View(idOf(rng.Intn(nSegs)))
					if !ok {
						continue
					}
					if !stable(v.Bytes()) {
						errs <- "single view observed torn/recycled bytes"
						v.Release()
						return
					}
					v.Release()
					continue
				}
				for i := range out {
					out[i] = nil
				}
				st := ram
				if rng.Intn(2) == 0 {
					st = nvme
				}
				st.ReadVec(ids, out)
				for _, b := range out {
					if b == nil {
						continue
					}
					if !stable(b.Bytes()) {
						errs <- "vectored view observed torn/recycled bytes"
					}
					b.Release()
				}
			}
		}(int64(100 + r))
	}

	// Readers drive the duration; the mutators run until they finish.
	readers.Wait()
	stop.Store(true)
	muts.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// Eventual eviction: with mutators quiesced, everything deletes and
	// both stores return to empty accounting.
	ram.DeleteFile("f")
	nvme.DeleteFile("f")
	if ram.Used() != 0 || nvme.Used() != 0 {
		t.Fatalf("used = %d/%d after final invalidation, want 0/0", ram.Used(), nvme.Used())
	}
}

// stable reports whether every byte of a pinned payload carries the
// same generation fill — the WORM stability contract of a held view.
func stable(p []byte) bool {
	if len(p) == 0 {
		return false
	}
	c := p[0]
	if c == slabPoison {
		return false
	}
	for _, b := range p {
		if b != c {
			return false
		}
	}
	return true
}
