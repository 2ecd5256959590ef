package pfs

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"hfetch/internal/devsim"
)

func TestCreateStatRemove(t *testing.T) {
	fs := New(nil)
	if err := fs.Create("a", 1000); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("a")
	if err != nil || fi.Size != 1000 || fi.Version != 0 {
		t.Fatalf("Stat = %+v %v", fi, err)
	}
	fs.Remove("a")
	if _, err := fs.Stat("a"); err == nil {
		t.Fatal("Stat after Remove must fail")
	}
}

func TestCreateNegativeSize(t *testing.T) {
	fs := New(nil)
	if err := fs.Create("a", -1); err == nil {
		t.Fatal("negative size must error")
	}
}

func TestReadDeterministic(t *testing.T) {
	fs := New(nil)
	fs.Create("a", 4096)
	b1 := make([]byte, 512)
	b2 := make([]byte, 512)
	if _, _, err := fs.ReadAt("a", 100, b1); err != nil {
		t.Fatal(err)
	}
	fs.ReadAt("a", 100, b2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-reads of same region must be identical")
	}
}

func TestReadOffsetIndependence(t *testing.T) {
	// Reading [0,200) then slicing [100,200) must equal reading at 100.
	fs := New(nil)
	fs.Create("a", 4096)
	whole := make([]byte, 200)
	part := make([]byte, 100)
	fs.ReadAt("a", 0, whole)
	fs.ReadAt("a", 100, part)
	if !bytes.Equal(whole[100:], part) {
		t.Fatal("content must be a pure function of absolute offset")
	}
}

func TestDifferentFilesDiffer(t *testing.T) {
	fs := New(nil)
	fs.Create("a", 1024)
	fs.Create("b", 1024)
	ba := make([]byte, 256)
	bb := make([]byte, 256)
	fs.ReadAt("a", 0, ba)
	fs.ReadAt("b", 0, bb)
	if bytes.Equal(ba, bb) {
		t.Fatal("different files should have different contents")
	}
}

func TestShortReadAtEOF(t *testing.T) {
	fs := New(nil)
	fs.Create("a", 100)
	p := make([]byte, 64)
	n, _, err := fs.ReadAt("a", 80, p)
	if err != nil || n != 20 {
		t.Fatalf("ReadAt near EOF = %d %v, want 20", n, err)
	}
	n, _, _ = fs.ReadAt("a", 200, p)
	if n != 0 {
		t.Fatalf("ReadAt past EOF = %d, want 0", n)
	}
}

func TestReadErrors(t *testing.T) {
	fs := New(nil)
	if _, _, err := fs.ReadAt("nope", 0, make([]byte, 1)); err == nil {
		t.Fatal("read of missing file must error")
	}
	fs.Create("a", 10)
	if _, _, err := fs.ReadAt("a", -1, make([]byte, 1)); err == nil {
		t.Fatal("negative offset must error")
	}
}

func TestWriteBumpsVersionAndChangesContent(t *testing.T) {
	fs := New(nil)
	fs.Create("a", 1024)
	before := make([]byte, 128)
	after := make([]byte, 128)
	fs.ReadAt("a", 0, before)
	if _, err := fs.Write("a", 0, 10); err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.Stat("a")
	if fi.Version != 1 {
		t.Fatalf("version = %d, want 1", fi.Version)
	}
	fs.ReadAt("a", 0, after)
	if bytes.Equal(before, after) {
		t.Fatal("content must change after a write (version mix)")
	}
}

func TestWriteExtendsFile(t *testing.T) {
	fs := New(nil)
	fs.Create("a", 100)
	fs.Write("a", 150, 50)
	fi, _ := fs.Stat("a")
	if fi.Size != 200 {
		t.Fatalf("size after extending write = %d, want 200", fi.Size)
	}
}

func TestWriteMissingFile(t *testing.T) {
	fs := New(nil)
	if _, err := fs.Write("nope", 0, 1); err == nil {
		t.Fatal("write of missing file must error")
	}
}

func TestExpectedAtMatchesRead(t *testing.T) {
	fs := New(nil)
	fs.Create("a", 512)
	p := make([]byte, 512)
	fs.ReadAt("a", 0, p)
	for _, off := range []int64{0, 1, 7, 8, 63, 511} {
		want, err := fs.ExpectedAt("a", off)
		if err != nil {
			t.Fatal(err)
		}
		if p[off] != want {
			t.Fatalf("ExpectedAt(%d) = %d, read %d", off, want, p[off])
		}
	}
}

func TestListNames(t *testing.T) {
	fs := New(nil)
	fs.Create("x", 1)
	fs.Create("y", 1)
	names := fs.List()
	if len(names) != 2 {
		t.Fatalf("List = %v, want 2 names", names)
	}
}

func TestDeviceCharged(t *testing.T) {
	dev := devsim.New(devsim.Profile{Name: "pfs", Latency: 5 * time.Millisecond}, 1)
	fs := New(dev)
	fs.Create("a", 1024)
	start := time.Now()
	_, cost, err := fs.ReadAt("a", 0, make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	if cost < 5*time.Millisecond {
		t.Fatalf("cost = %v, want >= 5ms", cost)
	}
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("read returned after %v, device not charged", el)
	}
	ops, _, _ := dev.Stats()
	if ops != 1 {
		t.Fatalf("device ops = %d, want 1", ops)
	}
}

// Property: any read equals the byte-by-byte ExpectedAt oracle.
func TestReadMatchesOracle(t *testing.T) {
	fs := New(nil)
	fs.Create("f", 2048)
	f := func(offRaw, lnRaw uint16) bool {
		off := int64(offRaw % 2048)
		ln := int(lnRaw%128) + 1
		p := make([]byte, ln)
		n, _, err := fs.ReadAt("f", off, p)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			want, _ := fs.ExpectedAt("f", off+int64(i))
			if p[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// fillBytewise is the generator's definition, kept here as the reference:
// one mix per byte, the byte picked out of its word by the low three bits
// of the absolute offset.
func fillBytewise(p []byte, seed uint64, version int64, off int64) {
	base := seed ^ (uint64(version) * 0x9e3779b97f4a7c15)
	for i := range p {
		abs := uint64(off + int64(i))
		word := mix(base + (abs>>3)*0xbf58476d1ce4e5b9)
		p[i] = byte(word >> ((abs & 7) * 8))
	}
}

// checkFill holds fill to the per-byte definition over [off, off+ln) and
// checks that it writes nothing outside p.
func checkFill(t *testing.T, seed uint64, version, off int64, ln int) {
	t.Helper()
	const guard = 0xA5
	got := bytes.Repeat([]byte{guard}, ln+2)
	fill(got[1:1+ln], seed, version, off)
	want := make([]byte, ln)
	fillBytewise(want, seed, version, off)
	if !bytes.Equal(got[1:1+ln], want) {
		t.Fatalf("fill(seed %#x, version %d, off %d, len %d) differs from the per-byte definition", seed, version, off, ln)
	}
	if got[0] != guard || got[ln+1] != guard {
		t.Fatalf("fill(off %d, len %d) wrote outside its buffer", off, ln)
	}
}

func TestFillEqualsPerByteDefinition(t *testing.T) {
	seed := seedOf("golden")
	for _, version := range []int64{0, 1, 7} {
		for _, off := range []int64{0, 1, 3, 7, 8, 13, 65536 - 3, 65536, 65536 + 3} {
			for _, ln := range []int{0, 1, 5, 8, 9, 17, 64, 1000, 4099} {
				checkFill(t, seed, version, off, ln)
			}
		}
	}
}

func FuzzFill(f *testing.F) {
	f.Add(int64(0), uint16(64), uint64(1), int64(0))
	f.Add(int64(13), uint16(4099), seedOf("a"), int64(3))
	f.Add(int64(65533), uint16(9), seedOf("b"), int64(1))
	f.Fuzz(func(t *testing.T, off int64, ln uint16, seed uint64, version int64) {
		if off < 0 {
			off = -(off + 1)
		}
		off %= 1 << 40
		checkFill(t, seed, version, off, int(ln))
		if ln == 0 {
			return
		}
		// ExpectedAt is fill of one byte: it must agree at both ends.
		p := make([]byte, ln)
		fill(p, seed, version, off)
		for _, i := range []int{0, int(ln) - 1} {
			var b [1]byte
			fill(b[:], seed, version, off+int64(i))
			if b[0] != p[i] {
				t.Fatalf("byte %d of fill(off %d, len %d) = %#x, one-byte fill there = %#x", i, off, ln, p[i], b[0])
			}
		}
	})
}

func TestReadAtvEqualsReadAtsAndChargesOneAccess(t *testing.T) {
	const size = 1000
	for _, c := range []struct {
		name string
		off  int64
		lens []int
		want int // bytes read in total
	}{
		{"aligned run", 128, []int{64, 64, 64, 64}, 256},
		{"unaligned, uneven, an empty buffer", 13, []int{5, 0, 17, 100}, 122},
		{"short inside the third buffer", 900, []int{40, 40, 40, 40}, 100},
		{"short at a buffer boundary", 920, []int{40, 40, 40}, 80},
		{"past EOF", 1000, []int{8, 8}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := devsim.New(devsim.Profile{Name: "pfs", BytesPerSec: 1 << 40, Channels: 1}, 1)
			fs := New(dev)
			fs.Create("a", size)
			const guard = 0xA5
			bufs := make([][]byte, len(c.lens))
			for i, ln := range c.lens {
				bufs[i] = bytes.Repeat([]byte{guard}, ln)
			}
			n, _, err := fs.ReadAtv("a", c.off, bufs)
			if err != nil || n != c.want {
				t.Fatalf("ReadAtv = %d, %v; want %d", n, err, c.want)
			}
			if ops, b, _ := dev.Stats(); ops != 1 || b != int64(c.want) {
				t.Fatalf("device charged %d accesses of %d bytes, want 1 of %d", ops, b, c.want)
			}
			ref := New(nil)
			ref.Create("a", size)
			off := c.off
			for i, ln := range c.lens {
				want := bytes.Repeat([]byte{guard}, ln)
				if _, _, err := ref.ReadAt("a", off, want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bufs[i], want) {
					t.Fatalf("buffer %d (offset %d, %d bytes) differs from a ReadAt there", i, off, ln)
				}
				off += int64(ln)
			}
		})
	}
	fs := New(nil)
	if _, _, err := fs.ReadAtv("nope", 0, [][]byte{make([]byte, 1)}); err == nil {
		t.Fatal("vectored read of a missing file must error")
	}
	fs.Create("a", 10)
	if _, _, err := fs.ReadAtv("a", -1, [][]byte{make([]byte, 1)}); err == nil {
		t.Fatal("negative offset must error")
	}
}

// BenchmarkFill1M is the generator's cost: what every origin read pays on
// top of its modeled device time. It reports MB/s.
func BenchmarkFill1M(b *testing.B) {
	p := make([]byte, 1<<20)
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		fill(p, 0x9e3779b97f4a7c15, 1, int64(i)<<20)
	}
}
