package tiers

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/invariant"
)

// chunkSources are the two places the free lists can sit: the platform's
// source (anonymous mappings where it has them) and the heap. The tests
// below run over both by building a slab on each, not by a build tag.
var chunkSources = []struct {
	name     string
	newChunk func(int) []byte
	drop     func([]byte)
}{
	{"platform", mapChunk, dropPages},
	{"heap", func(n int) []byte { return make([]byte, n) }, nil},
}

func overSources(t *testing.T, f func(t *testing.T, s *slab)) {
	for _, src := range chunkSources {
		src := src
		t.Run(src.name, func(t *testing.T) {
			f(t, &slab{newChunk: src.newChunk, drop: src.drop})
		})
	}
}

// cold is the part of the mapped bytes whose pages went back to the OS.
func (s *slab) coldBytes() int64 {
	_, cold := s.stats()
	return cold
}

func TestSlabLedgerPerClass(t *testing.T) {
	overSources(t, func(t *testing.T, s *slab) {
		var held [][]byte
		var want int64
		for shift := slabMinShift; shift <= slabMaxShift; shift++ {
			n := int64(1)<<shift - 7 // rounds up to the class
			b := s.get(n)
			if int64(len(b)) != n || cap(b) != 1<<shift {
				t.Fatalf("get(%d): len %d cap %d, want cap %d", n, len(b), cap(b), 1<<shift)
			}
			b[0], b[n-1] = 1, 2 // mapped and writable end to end
			held = append(held, b)
			want += 1 << shift
		}
		st, _ := s.stats()
		if st.InUseBytes != want {
			t.Fatalf("InUseBytes = %d with one buffer of every class out, want %d", st.InUseBytes, want)
		}
		// One chunk a class: a whole chunk below slabChunk, the buffer above.
		var mapped int64
		for shift := slabMinShift; shift <= slabMaxShift; shift++ {
			mapped += int64(max(1<<shift, slabChunk))
		}
		if st.MappedBytes != mapped || st.Misses != slabClasses || st.Hits != 0 {
			t.Fatalf("mapped %d misses %d hits %d, want %d/%d/0", st.MappedBytes, st.Misses, st.Hits, mapped, slabClasses)
		}
		for _, b := range held {
			s.put(b)
		}
		st, _ = s.stats()
		if st.InUseBytes != 0 || st.Puts != slabClasses || st.MappedBytes != mapped {
			t.Fatalf("after returning everything: in use %d puts %d mapped %d", st.InUseBytes, st.Puts, st.MappedBytes)
		}
	})
}

func TestSlabReusesBeforeItMaps(t *testing.T) {
	overSources(t, func(t *testing.T, s *slab) {
		const size = 64 << 10
		per := slabChunk / size
		seen := map[uintptr]bool{}
		var held [][]byte
		for i := 0; i < 3*per; i++ {
			b := s.get(size)
			if seen[addrOf(b)] {
				t.Fatalf("buffer %#x handed out twice", addrOf(b))
			}
			seen[addrOf(b)] = true
			held = append(held, b)
		}
		st, _ := s.stats()
		if st.MappedBytes != 3*slabChunk || st.Misses != 3 || st.Hits != int64(3*per-3) {
			t.Fatalf("3 chunks' worth out: mapped %d misses %d hits %d", st.MappedBytes, st.Misses, st.Hits)
		}
		for _, b := range held {
			s.put(b)
		}
		// Every address comes back before a fourth chunk is mapped.
		for i := 0; i < 3*per; i++ {
			if b := s.get(size); !seen[addrOf(b)] {
				t.Fatalf("get %d mapped fresh memory with free buffers listed", i)
			}
		}
		if st, _ := s.stats(); st.MappedBytes != 3*slabChunk || st.InUseBytes != int64(3*per*size) {
			t.Fatalf("second round: mapped %d in use %d", st.MappedBytes, st.InUseBytes)
		}
	})
}

func TestSlabPutSortsOutForeignBuffers(t *testing.T) {
	overSources(t, func(t *testing.T, s *slab) {
		own := s.get(8192)
		for name, b := range map[string][]byte{
			"heap buffer of a class size": make([]byte, 8192),
			"no class size":               make([]byte, 100),
			"oversize":                    s.get(SlabMaxBuf + 1),
			"tail of a slab buffer":       own[4096:],
			"nil":                         nil,
		} {
			before, _ := s.stats()
			s.put(b)
			after, _ := s.stats()
			wantDropped := before.Dropped + 1
			if b == nil {
				wantDropped--
			}
			if after.Dropped != wantDropped || after.Puts != before.Puts || after.InUseBytes != before.InUseBytes {
				t.Errorf("%s: dropped %d→%d puts %d→%d in use %d→%d", name,
					before.Dropped, after.Dropped, before.Puts, after.Puts, before.InUseBytes, after.InUseBytes)
			}
		}
		s.put(own[:10]) // any length, the capacity routes it home
		if st, _ := s.stats(); st.InUseBytes != 0 || st.Puts != 1 {
			t.Fatalf("own buffer not taken back: in use %d puts %d", st.InUseBytes, st.Puts)
		}
	})
}

func TestSlabUnmappableRequestFallsBackToHeap(t *testing.T) {
	s := &slab{newChunk: func(int) []byte { return nil }}
	b := s.get(5000)
	if len(b) != 5000 {
		t.Fatalf("len %d", len(b))
	}
	s.put(b)
	if st, _ := s.stats(); st.InUseBytes != 0 || st.MappedBytes != 0 || st.Misses != 1 || st.Dropped != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSlabTrimIsSyncPoolsRule drives GC cycles by hand: a buffer is
// handed back to the OS by the second cycle that finds it free, a
// buffer in use in between is not, and a trimmed buffer is reused
// before new memory is mapped.
func TestSlabTrimIsSyncPoolsRule(t *testing.T) {
	overSources(t, func(t *testing.T, s *slab) {
		if s.drop == nil {
			t.Skip("heap chunks have no pages to give back")
		}
		const size = 64 << 10
		per := slabChunk / size
		var held [][]byte
		for i := 0; i < per; i++ {
			b := s.get(size)
			for k := range b {
				b[k] = 0xA5
			}
			held = append(held, b)
		}
		for _, b := range held {
			s.put(b)
		}
		s.trim()
		if cold := s.coldBytes(); cold != 0 {
			t.Fatalf("%d bytes trimmed after one cycle", cold)
		}
		busy := s.get(size) // asked for between the cycles: stays resident
		s.put(busy)
		s.trim()
		if cold := s.coldBytes(); cold != int64(per-1)*size {
			t.Fatalf("cold = %d after two cycles, want %d", cold, (per-1)*size)
		}
		s.trim()
		if cold := s.coldBytes(); cold != slabChunk {
			t.Fatalf("cold = %d after three cycles, want the whole chunk", cold)
		}
		for i := 0; i < per; i++ {
			b := s.get(size)
			if !invariant.Enabled && (b[0] != 0 || b[size-1] != 0) {
				t.Fatalf("trimmed buffer %d reads %#x, want the zeros of a fresh page", i, b[0])
			}
			b[0] = 1 // faults back in
		}
		if st, cold := s.stats(); cold != 0 || st.MappedBytes != slabChunk {
			t.Fatalf("reuse of trimmed buffers: cold %d mapped %d", cold, st.MappedBytes)
		}
	})
}

// settle lets the stores earlier tests dropped give their payloads back
// before a test reads the process-wide ledger (leakcheck.Slab does the
// same for the packages that can import it): finalizers run in queue
// order, so once a sentinel of a second collection has run, so has
// everything the first found unreachable.
func settle() {
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		runtime.SetFinalizer(&gcTick{}, func(*gcTick) { close(done) })
		for ran := false; !ran; {
			runtime.GC()
			select {
			case <-done:
				ran = true
			case <-time.After(time.Millisecond):
			}
		}
	}
}

// waitTrims waits until the slab has trimmed for n more GC cycles.
func waitTrims(t *testing.T, n int64) {
	t.Helper()
	target := defaultSlab.trims.Load() + n
	for deadline := time.Now().Add(5 * time.Second); defaultSlab.trims.Load() < target; {
		if time.Now().After(deadline) {
			t.Fatalf("slab trimmed for %d GC cycles, want %d", defaultSlab.trims.Load(), target)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestSlabResidentBytesFallAfterTwoGCs is the retention rule end to end
// on the process's slab, with the collector as the clock: fill, clear,
// two GC cycles, and what the slab keeps resident is back where it was.
func TestSlabResidentBytesFallAfterTwoGCs(t *testing.T) {
	if defaultSlab.drop == nil {
		t.Skip("heap chunks have no pages to give back")
	}
	resident := func() int64 {
		st, cold := defaultSlab.stats()
		return st.MappedBytes - cold
	}
	settle()
	waitTrims(t, 2) // whatever earlier tests left free
	before, inUse := resident(), ReadSlabStats().InUseBytes

	const n, size = 256, 64 << 10
	st := NewStore("ram", n*size, nil)
	for i := 0; i < n; i++ {
		if err := st.PutOwned(seg.ID{File: "f", Index: int64(i)}, filled(size, 7)); err != nil {
			t.Fatal(err)
		}
	}
	if got := resident(); got < before+n*size {
		t.Fatalf("resident %d after filling %d bytes on top of %d", got, n*size, before)
	}
	st.Clear()
	if got := ReadSlabStats().InUseBytes; got != inUse {
		t.Fatalf("InUseBytes = %d after Clear, want %d", got, inUse)
	}
	waitTrims(t, 2)
	if got := resident(); got > before {
		t.Fatalf("resident %d two GC cycles after Clear, want the pre-fill %d", got, before)
	}
}

// TestDroppedStoreGivesItsBytesBack: a store nobody clears (a test, a
// benchmark drive) must not strand slab memory.
func TestDroppedStoreGivesItsBytesBack(t *testing.T) {
	settle()
	before := ReadSlabStats().InUseBytes
	func() {
		st := NewStore("dropped", 1<<20, nil)
		for i := 0; i < 16; i++ {
			if err := st.Put(seg.ID{File: "f", Index: int64(i)}, make([]byte, 64<<10)); err != nil {
				t.Fatal(err)
			}
		}
		if got := ReadSlabStats().InUseBytes; got != before+1<<20 {
			t.Fatalf("InUseBytes = %d with 1 MiB resident, want %d", got, before+1<<20)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); ReadSlabStats().InUseBytes != before; {
		if time.Now().After(deadline) {
			t.Fatalf("InUseBytes = %d after the store was collected, want %d", ReadSlabStats().InUseBytes, before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestPinnedViewOutlivesClearAndTrim: Clear drops the store's reference
// only; the bytes a reader pinned stay its own — through GC cycles and
// trims — until it releases, and only then return to the slab.
func TestPinnedViewOutlivesClearAndTrim(t *testing.T) {
	settle()
	before := ReadSlabStats().InUseBytes
	st := NewStore("ram", 1<<20, nil)
	id := seg.ID{File: "f", Index: 0}
	want := bytes.Repeat([]byte{0x5A}, 64<<10)
	if err := st.Put(id, want); err != nil {
		t.Fatal(err)
	}
	v, ok := st.View(id)
	if !ok {
		t.Fatal("not resident")
	}
	st.Clear()
	if defaultSlab.drop != nil {
		waitTrims(t, 2)
	} else {
		runtime.GC()
		runtime.GC()
	}
	if got := ReadSlabStats().InUseBytes; got != before+64<<10 {
		t.Fatalf("InUseBytes = %d while the view is pinned, want %d", got, before+64<<10)
	}
	if !bytes.Equal(v.Bytes(), want) {
		t.Fatal("pinned bytes changed under Clear, two GC cycles and a trim")
	}
	v.Release()
	if got := ReadSlabStats().InUseBytes; got != before {
		t.Fatalf("InUseBytes = %d after the last release, want %d", got, before)
	}
}

// TestLeakedBufIsReported: under -tags hfetch_invariants the collector
// reports a Buf it finds unreachable with a reference outstanding.
func TestLeakedBufIsReported(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("needs -tags hfetch_invariants")
	}
	reports := make(chan string, 4)
	old := bufLeaked
	bufLeaked = func(msg string) { reports <- msg }
	defer func() { bufLeaked = old }()

	payload := SlabGet(4096)
	func() {
		b := NewBuf(payload)
		b.Retain()
		b.Release() // one reference left, and the Buf goes out of scope
	}()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case msg := <-reports:
			t.Log(msg)
			SlabPut(payload) // what the leaked reference should have done
			return
		case <-deadline:
			t.Fatal("a Buf collected holding a reference was not reported")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestSlabAllocationBudgets(t *testing.T) {
	SlabPut(SlabGet(64 << 10))
	if n := testing.AllocsPerRun(200, func() { SlabPut(SlabGet(64 << 10)) }); n != 0 {
		t.Errorf("SlabPut(SlabGet(64 KiB)) = %v allocations, want 0", n)
	}
	if invariant.Enabled {
		return // a checked Buf carries a finalizer and its creator's stack
	}
	// A warm PutOwned allocates its Buf and nothing else (the map entry
	// is overwritten in place).
	st := NewStore("ram", 1<<20, nil)
	defer st.Clear()
	id := seg.ID{File: "f", Index: 0}
	if err := st.PutOwned(id, SlabGet(64<<10)); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if err := st.PutOwned(id, SlabGet(64<<10)); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("warm PutOwned = %v allocations, want ≤ 1 (the Buf)", n)
	}
}
