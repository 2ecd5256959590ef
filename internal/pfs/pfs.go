// Package pfs emulates the remote parallel file system that is the home
// of all data in the paper's deployment (an OrangeFS installation on 24
// storage nodes). Files are synthetic: their contents are generated
// deterministically from a per-file seed and version, so any byte read
// through any tier of the hierarchy can be verified against the expected
// value — a data-integrity check real traces cannot give us.
//
// Every read and write is charged against a devsim.Device whose channel
// count stands in for the storage servers; concurrent clients therefore
// contend for PFS bandwidth exactly as the paper's ranks contend for
// OrangeFS.
package pfs

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"hfetch/internal/devsim"
)

// FileInfo describes one file.
type FileInfo struct {
	Name    string
	Size    int64
	Version int64
}

type file struct {
	size    int64
	seed    uint64
	version int64
}

// FS is an emulated parallel file system. Safe for concurrent use.
type FS struct {
	dev *devsim.Device

	mu    sync.RWMutex
	files map[string]*file
}

// New creates a file system whose accesses are charged to dev. A nil dev
// makes all accesses free (useful in unit tests).
func New(dev *devsim.Device) *FS {
	return &FS{dev: dev, files: make(map[string]*file)}
}

// Device returns the underlying device model (may be nil).
func (fs *FS) Device() *devsim.Device { return fs.dev }

// Create registers a file of the given size. Creating an existing file
// resets it (size and version).
func (fs *FS) Create(name string, size int64) error {
	if size < 0 {
		return fmt.Errorf("pfs: negative size %d for %q", size, name)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[name] = &file{size: size, seed: seedOf(name)}
	return nil
}

// Remove deletes a file.
func (fs *FS) Remove(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, name)
}

// Stat returns file metadata.
func (fs *FS) Stat(name string) (FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("pfs: no such file %q", name)
	}
	return FileInfo{Name: name, Size: f.size, Version: f.version}, nil
}

// List returns the names of all files (unordered).
func (fs *FS) List() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	return out
}

// snapshot copies a file's metadata under the lock: Write mutates size
// and version in place, so readers must not follow the pointer unlocked.
func (fs *FS) snapshot(name string) (file, bool) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return file{}, false
	}
	return *f, true
}

// ReadAt reads len(p) bytes from name at offset off, charging the device
// model, and returns the number of bytes read (short at EOF).
func (fs *FS) ReadAt(name string, off int64, p []byte) (int, time.Duration, error) {
	bufs := [1][]byte{p}
	return fs.ReadAtv(name, off, bufs[:])
}

// ReadAtv is the vectored ReadAt: it reads the span starting at off into
// bufs, one after the other, and charges the device one access of the
// span's size — one request's latency for a whole run of segments, each
// landing in its own buffer. It returns the bytes read in total (short at
// EOF: the buffers past that count are untouched).
func (fs *FS) ReadAtv(name string, off int64, bufs [][]byte) (int, time.Duration, error) {
	f, ok := fs.snapshot(name)
	if !ok {
		return 0, 0, fmt.Errorf("pfs: no such file %q", name)
	}
	if off < 0 {
		return 0, 0, fmt.Errorf("pfs: negative offset %d", off)
	}
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	if off >= f.size {
		n = 0
	} else if off+n > f.size {
		n = f.size - off
	}
	var cost time.Duration
	if fs.dev != nil {
		cost = fs.dev.Access(n)
	}
	left := n
	for _, b := range bufs {
		if int64(len(b)) > left {
			b = b[:left]
		}
		fill(b, f.seed, f.version, off)
		off += int64(len(b))
		left -= int64(len(b))
	}
	return int(n), cost, nil
}

// Write emulates an update to [off, off+ln): it bumps the file's version
// and charges the device. Written data is not stored — contents are
// regenerated from (seed, version) — but the version bump changes every
// subsequently read byte, which is exactly what consistency tests need to
// detect stale prefetched data.
func (fs *FS) Write(name string, off, ln int64) (time.Duration, error) {
	fs.mu.Lock()
	f, ok := fs.files[name]
	if ok {
		f.version++
		if end := off + ln; end > f.size {
			f.size = end
		}
	}
	fs.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("pfs: no such file %q", name)
	}
	var cost time.Duration
	if fs.dev != nil {
		cost = fs.dev.Access(ln)
	}
	return cost, nil
}

// ExpectedAt returns the byte a correct read of file name at offset off
// must produce given the file's current version.
func (fs *FS) ExpectedAt(name string, off int64) (byte, error) {
	f, ok := fs.snapshot(name)
	if !ok {
		return 0, fmt.Errorf("pfs: no such file %q", name)
	}
	var b [1]byte
	fill(b[:], f.seed, f.version, off)
	return b[0], nil
}

// seedOf derives a stable seed from a file name (FNV-1a).
func seedOf(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// fill writes the deterministic content of [off, off+len(p)) into p.
// Content is a function of (seed, version, absolute offset): the byte at
// abs is byte abs&7 (little-endian) of a splitmix64-style mix of word
// abs>>3, so reads at arbitrary offsets are O(len) with no per-file
// state. One mix yields eight bytes; only an unaligned head and a tail
// shorter than a word are written byte by byte.
func fill(p []byte, seed uint64, version int64, off int64) {
	base := seed ^ (uint64(version) * 0x9e3779b97f4a7c15)
	word := func(abs uint64) uint64 { return mix(base + (abs>>3)*0xbf58476d1ce4e5b9) }
	abs := uint64(off)
	bytewise := func(n int) {
		for ; n > 0; n, p, abs = n-1, p[1:], abs+1 {
			p[0] = byte(word(abs) >> ((abs & 7) * 8))
		}
	}
	bytewise(min(len(p), int(-abs&7)))
	for ; len(p) >= 8; p, abs = p[8:], abs+8 {
		binary.LittleEndian.PutUint64(p, word(abs))
	}
	bytewise(len(p))
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
