package ioclient

import (
	"bytes"
	"errors"
	"slices"
	"strconv"
	"testing"

	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

func setup(t *testing.T) (*pfs.FS, *Client, *tiers.Store, *tiers.Store) {
	t.Helper()
	fs := pfs.New(nil)
	fs.Create("f", 1000)
	segr := seg.NewSegmenter(100)
	c := New(fs, segr)
	ram := tiers.NewStore("ram", 500, nil)
	nvme := tiers.NewStore("nvme", 500, nil)
	return fs, c, ram, nvme
}

// resident copies a resident payload out through a pinned view.
func resident(t *testing.T, st *tiers.Store, id seg.ID) []byte {
	t.Helper()
	v, ok := st.View(id)
	if !ok {
		t.Fatalf("%v not resident in %s", id, st.Name())
	}
	defer v.Release()
	return append([]byte(nil), v.Bytes()...)
}

func TestFetchLoadsCorrectBytes(t *testing.T) {
	fs, c, ram, _ := setup(t)
	id := seg.ID{File: "f", Index: 2}
	if err := c.Fetch(id, 0, ram); err != nil {
		t.Fatal(err)
	}
	got := resident(t, ram, id)
	if len(got) != 100 {
		t.Fatalf("View = %d bytes", len(got))
	}
	want := make([]byte, 100)
	fs.ReadAt("f", 200, want)
	if !bytes.Equal(got, want) {
		t.Fatal("fetched payload differs from PFS content")
	}
}

func TestFetchClippedSize(t *testing.T) {
	_, c, ram, _ := setup(t)
	id := seg.ID{File: "f", Index: 9} // bytes 900..1000
	if err := c.Fetch(id, 50, ram); err != nil {
		t.Fatal(err)
	}
	if got := ram.SizeOf(id); got != 50 {
		t.Fatalf("clipped fetch size = %d, want 50", got)
	}
}

func TestFetchMissingFile(t *testing.T) {
	_, c, ram, _ := setup(t)
	if err := c.Fetch(seg.ID{File: "ghost", Index: 0}, 0, ram); err == nil {
		t.Fatal("fetch of missing file must fail")
	}
}

func TestFetchBeyondEOF(t *testing.T) {
	_, c, ram, _ := setup(t)
	if err := c.Fetch(seg.ID{File: "f", Index: 100}, 0, ram); err == nil {
		t.Fatal("fetch beyond EOF must fail")
	}
}

func TestFetchIntoFullTier(t *testing.T) {
	_, c, _, _ := setup(t)
	tiny := tiers.NewStore("tiny", 10, nil)
	if err := c.Fetch(seg.ID{File: "f", Index: 0}, 0, tiny); err == nil {
		t.Fatal("fetch into a full tier must fail")
	}
}

func TestTransferMovesPayload(t *testing.T) {
	_, c, ram, nvme := setup(t)
	id := seg.ID{File: "f", Index: 0}
	c.Fetch(id, 0, ram)
	orig := resident(t, ram, id)
	if err := c.Transfer(id, ram, nvme); err != nil {
		t.Fatal(err)
	}
	if ram.Has(id) {
		t.Fatal("exclusive cache: source must not retain the segment")
	}
	if got := resident(t, nvme, id); !bytes.Equal(got, orig) {
		t.Fatal("transferred payload corrupted")
	}
}

func TestTransferMissingSegment(t *testing.T) {
	_, c, ram, nvme := setup(t)
	err := c.Transfer(seg.ID{File: "f", Index: 0}, ram, nvme)
	if err == nil {
		t.Fatal("transfer of non-resident segment must fail")
	}
}

func TestTransferRestoresOnDestFailure(t *testing.T) {
	_, c, ram, _ := setup(t)
	tiny := tiers.NewStore("tiny", 10, nil)
	id := seg.ID{File: "f", Index: 0}
	c.Fetch(id, 0, ram)
	if err := c.Transfer(id, ram, tiny); err == nil {
		t.Fatal("transfer into a full tier must fail")
	}
	if !ram.Has(id) {
		t.Fatal("payload must be restored to the source on failure")
	}
}

// refiller is a tiers.RoomWaiter that fills the room it is woken for.
type refiller struct {
	id seg.ID
	b  *tiers.Buf
}

func (r *refiller) RoomMade(s *tiers.Store) {
	if err := s.PutBuf(r.id, r.b); err != nil {
		panic(err)
	}
}

// A refused transfer whose source refilled meanwhile can land nowhere: the
// payload is dropped — an eviction the stores show — and not leaked.
func TestTransferDropsPayloadWhenSourceRefilled(t *testing.T) {
	_, c, _, _ := setup(t)
	src := tiers.NewStore("src", 100, nil)
	dst := tiers.NewStore("dst", 100, nil)
	id, other, third := seg.ID{File: "f", Index: 0}, seg.ID{File: "f", Index: 1}, seg.ID{File: "f", Index: 2}
	c.Fetch(id, 0, src)
	c.Fetch(other, 0, dst)
	before := tiers.ReadSlabStats().InUseBytes
	// A fill waiting at the source's door takes the room the transfer's
	// first half makes, before its second half is refused.
	w := &refiller{id: third, b: tiers.NewBuf(tiers.SlabGet(100))}
	if err := src.PutBufWait(w.id, w.b, w); err != tiers.ErrNoSpace {
		t.Fatalf("PutBufWait into a full store = %v, want the bare ErrNoSpace", err)
	}
	if err := c.Transfer(id, src, dst); !errors.Is(err, tiers.ErrNoSpace) {
		t.Fatalf("transfer into a full tier = %v, want ErrNoSpace", err)
	}
	if src.Has(id) || dst.Has(id) || !src.Has(third) || !dst.Has(other) {
		t.Fatal("the payload must be nowhere, its neighbours where they were")
	}
	if got := tiers.ReadSlabStats().InUseBytes; got != before {
		t.Fatalf("slab in use %d, want %d: one payload in, one dropped", got, before)
	}
}

// roomLog is a tiers.RoomWaiter that counts its wake-ups.
type roomLog struct{ made int }

func (r *roomLog) RoomMade(*tiers.Store) { r.made++ }

// Land leaves its waiter at a full destination's door; the next release
// there — and only the next — calls it, and the payload then lands.
func TestLandLeavesWaiterAtFullDoor(t *testing.T) {
	_, c, ram, nvme := setup(t)
	tiny := tiers.NewStore("tiny", 100, nil)
	a, b := seg.ID{File: "f", Index: 0}, seg.ID{File: "f", Index: 1}
	c.Fetch(a, 0, ram)
	c.Fetch(b, 0, tiny)
	held, err := c.Take(a, ram)
	if err != nil {
		t.Fatal(err)
	}
	var w roomLog
	for i := 0; i < 2; i++ { // refused twice, registered once
		if err := c.Land(a, held, ram, tiny, &w); err != tiers.ErrNoSpace {
			t.Fatalf("Land = %v, want the bare ErrNoSpace", err)
		}
	}
	nvme.Delete(b) // a release elsewhere wakes nobody
	if w.made != 0 {
		t.Fatalf("woken %d times before any room was made", w.made)
	}
	tiny.Delete(b)
	tiny.Delete(b) // nothing released, nobody at the door
	if w.made != 1 {
		t.Fatalf("woken %d times by one release, want 1", w.made)
	}
	if err := c.Land(a, held, ram, tiny, &w); err != nil {
		t.Fatal(err)
	}
	if !tiny.Has(a) || ram.Has(a) {
		t.Fatal("the payload must land in the destination alone")
	}
	if st := c.Stats(); st.Transfers != 1 {
		t.Fatalf("transfers = %d, want 1 (refusals count nothing)", st.Transfers)
	}
}

func TestEvict(t *testing.T) {
	_, c, ram, _ := setup(t)
	id := seg.ID{File: "f", Index: 0}
	c.Fetch(id, 0, ram)
	if err := c.Evict(id, ram); err != nil {
		t.Fatal(err)
	}
	if ram.Has(id) {
		t.Fatal("evicted segment must be gone")
	}
	if err := c.Evict(id, ram); !errors.Is(err, tiers.ErrNotFound) {
		t.Fatalf("double evict = %v, want ErrNotFound", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	_, c, ram, nvme := setup(t)
	id := seg.ID{File: "f", Index: 0}
	c.Fetch(id, 0, ram)
	c.Transfer(id, ram, nvme)
	c.Evict(id, nvme)
	st := c.Stats()
	if st.Fetches != 1 || st.Transfers != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesMoved != 200 { // 100 fetched + 100 transferred
		t.Fatalf("bytes = %d, want 200", st.BytesMoved)
	}
}

// fetchManySetup builds a PFS on a counting device so tests can assert
// how many origin reads a coalesced fetch issued.
func fetchManySetup(t *testing.T, capacity int64) (*pfs.FS, *Client, *tiers.Store, *devsim.Device) {
	t.Helper()
	dev := devsim.New(devsim.Profile{Name: "pfs", BytesPerSec: 1 << 40, Channels: 1}, 1)
	fs := pfs.New(dev)
	fs.Create("f", 1000)
	c := New(fs, seg.NewSegmenter(100))
	ram := tiers.NewStore("ram", capacity, nil)
	return fs, c, ram, dev
}

// fetchMany runs FetchMany and collects what it reported: errs[i] is
// segment i's outcome, order the indices in the order they landed, and
// fetched how many times the origin-read hook ran.
func fetchMany(c *Client, file string, first int64, sizes []int64, dst *tiers.Store) (errs []error, order []int, fetched, coalesced int) {
	errs = make([]error, len(sizes))
	coalesced = c.FetchMany(file, first, sizes, dst, func() { fetched++ }, func(i int, held *tiers.Buf, err error) {
		if held != nil {
			// A refused segment's payload is the callback's: nobody here
			// waits for room, so it goes back to the slab.
			if err != tiers.ErrNoSpace {
				panic("a payload is handed back only with the bare ErrNoSpace")
			}
			held.Release()
		}
		errs[i] = err
		order = append(order, i)
		// Called with no store lock held: this would deadlock otherwise.
		dst.Has(seg.ID{File: file, Index: first + int64(i)})
	})
	return errs, order, fetched, coalesced
}

func TestFetchManyCoalescesRunIntoOneRead(t *testing.T) {
	fs, c, ram, dev := fetchManySetup(t, 1000)
	copied := tiers.CopiedBytes()
	errs, order, fetched, coalesced := fetchMany(c, "f", 2, []int64{100, 100, 100, 100}, ram)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
	}
	if coalesced != 4 || fetched != 1 {
		t.Fatalf("coalesced = %d, fetched called %d times; want 4 and 1", coalesced, fetched)
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("landing order = %v, want %v", order, want)
	}
	if ops, _, _ := dev.Stats(); ops != 1 {
		t.Fatalf("origin reads = %d, want 1 for a contiguous full-grain run", ops)
	}
	if got := tiers.CopiedBytes(); got != copied {
		t.Fatalf("a fetch copied %d payload bytes, want none", got-copied)
	}
	// Every segment's payload must match what a direct read produces.
	for i := int64(2); i < 6; i++ {
		b, ok := ram.View(seg.ID{File: "f", Index: i})
		if !ok || b.Len() != 100 {
			t.Fatalf("segment %d not resident whole", i)
		}
		for o, got := range b.Bytes() {
			want, _ := fs.ExpectedAt("f", i*100+int64(o))
			if got != want {
				t.Fatalf("segment %d byte %d = %#x, want %#x", i, o, got, want)
			}
		}
		b.Release()
	}
	if st := c.Stats(); st.Fetches != 4 || st.BytesMoved != 400 {
		t.Fatalf("stats = %+v, want 4 fetches / 400 bytes", st)
	}
}

func TestFetchManyShortSegmentBreaksRun(t *testing.T) {
	// A short (clipped) segment in the middle ends the contiguous span:
	// [full, short, full] must take one coalesced read for the first
	// pair and one single fetch for the trailing segment.
	_, c, ram, dev := fetchManySetup(t, 1000)
	errs, order, fetched, coalesced := fetchMany(c, "f", 0, []int64{100, 40, 100}, ram)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
	}
	if coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2 (only the leading pair shares a read)", coalesced)
	}
	if ops, _, _ := dev.Stats(); ops != 2 {
		t.Fatalf("origin reads = %d, want 2", ops)
	}
	if fetched != 1 || len(order) != 3 {
		t.Fatalf("fetched called %d times, %d landings; want 1 and 3", fetched, len(order))
	}
	if got := ram.SizeOf(seg.ID{File: "f", Index: 1}); got != 40 {
		t.Fatalf("short segment stored %d bytes, want 40", got)
	}
}

func TestFetchManyReportsPerSegmentErrors(t *testing.T) {
	// Destination holds one segment more: the run's first put succeeds,
	// the second fails alone — its payload is handed to landed, which gives
	// it back to the slab — and the third, which fits again, is stored.
	_, c, ram, _ := fetchManySetup(t, 1000)
	if err := ram.Put(seg.ID{File: "other", Index: 0}, make([]byte, 850)); err != nil {
		t.Fatal(err)
	}
	frees := tiers.ReadSlabStats()
	errs, _, _, coalesced := fetchMany(c, "f", 0, []int64{100, 100, 50}, ram)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("segments that fit: %v, %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], tiers.ErrNoSpace) {
		t.Fatalf("segment 1 error = %v, want ErrNoSpace", errs[1])
	}
	if coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2 (only the stored segments count)", coalesced)
	}
	if !ram.Has(seg.ID{File: "f", Index: 0}) || ram.Has(seg.ID{File: "f", Index: 1}) || !ram.Has(seg.ID{File: "f", Index: 2}) {
		t.Fatal("segments 0 and 2 must be resident, segment 1 not")
	}
	if now := tiers.ReadSlabStats(); now.Puts+now.Dropped != frees.Puts+frees.Dropped+1 {
		t.Fatalf("the refused segment's buffer was freed %d times, want once",
			now.Puts+now.Dropped-frees.Puts-frees.Dropped)
	}
}

func TestFetchManyMissingFile(t *testing.T) {
	_, c, ram, _ := fetchManySetup(t, 1000)
	errs, _, fetched, _ := fetchMany(c, "ghost", 0, []int64{100, 100}, ram)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("segment %d: expected an error for a missing file", i)
		}
	}
	if fetched != 1 {
		t.Fatalf("fetched called %d times, want 1 even when the read fails", fetched)
	}
}

func TestFetchManyShortAtEOF(t *testing.T) {
	// The planner's sizes are a file's as it was: one that shrank since
	// gives the segments still inside it, clipped, and fails the rest.
	fs, c, ram, _ := fetchManySetup(t, 1000)
	fs.Create("f", 250)
	errs, _, _, _ := fetchMany(c, "f", 0, []int64{100, 100, 100, 100}, ram)
	if errs[0] != nil || errs[1] != nil || errs[2] != nil || errs[3] == nil {
		t.Fatalf("errs = %v, want only the segment past EOF to fail", errs)
	}
	if got := ram.SizeOf(seg.ID{File: "f", Index: 2}); got != 50 {
		t.Fatalf("clipped segment stored %d bytes, want 50", got)
	}
}

// A run's allocations do not grow with what the origin read carries: one
// vector of buffers per call and one tiers.Buf (and at most a map cell)
// per segment, none of them payload-sized once the slab is warm.
func TestFetchManyAllocationBudget(t *testing.T) {
	const segs, grain = 16, 64 << 10
	fs := pfs.New(nil)
	fs.Create("f", segs*grain)
	c := New(fs, seg.NewSegmenter(grain))
	ram := tiers.NewStore("ram", 2*segs*grain, nil)
	sizes := make([]int64, segs)
	for i := range sizes {
		sizes[i] = grain
	}
	landed := func(int, *tiers.Buf, error) {}
	run := func() { c.FetchMany("f", 0, sizes, ram, nil, landed) }
	run() // warm the slab and the store's map
	if got := testing.AllocsPerRun(20, run); got > 3*segs {
		t.Fatalf("a %d-segment run allocates %.0f times, budget %d", segs, got, 3*segs)
	}
}

func BenchmarkFetchMany(b *testing.B) {
	const grain = 64 << 10
	for _, segs := range []int{16, 64} {
		b.Run(strconv.Itoa(segs), func(b *testing.B) {
			fs := pfs.New(nil)
			fs.Create("f", int64(segs)*grain)
			c := New(fs, seg.NewSegmenter(grain))
			ram := tiers.NewStore("ram", 2*int64(segs)*grain, nil)
			sizes := make([]int64, segs)
			for i := range sizes {
				sizes[i] = grain
			}
			landed := func(int, *tiers.Buf, error) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.FetchMany("f", 0, sizes, ram, nil, landed)
			}
			b.StopTimer()
			perSeg := float64(b.N * segs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perSeg, "ns/seg")
			b.ReportMetric(float64(testing.AllocsPerRun(5, func() { c.FetchMany("f", 0, sizes, ram, nil, landed) }))/float64(segs), "allocs/seg")
		})
	}
}
