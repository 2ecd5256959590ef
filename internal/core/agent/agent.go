// Package agent implements the HFetch client agent each application
// links against. The paper's agent is a PMPI/POSIX/HDF5 interceptor; in
// this reproduction applications use the agent's Open/ReadAt/Close API
// directly, which exercises the same protocol: open begins a prefetching
// epoch, every read consults the segment mappings and is redirected to
// the tier holding the prefetched segment (falling back to the PFS on a
// miss), and every access emits an enriched event to the server.
package agent

import (
	"fmt"
	"io"
	"sync"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/events"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
)

// ServerAPI is what an agent needs from its HFetch server (implemented
// by server.Server locally and by the remote client in cmd/hfetchd
// deployments).
type ServerAPI interface {
	StartEpoch(file string, size int64)
	EndEpoch(file string)
	// ReadPrefetched serves the byte range from whichever tier (local,
	// shared, or remote) holds the segment; ok is false on a miss.
	ReadPrefetched(id seg.ID, off int64, p []byte) (n int, tier string, ok bool)
	PostEvent(ev events.Event)
	Segmenter() *seg.Segmenter
}

// Agent connects one application process to its node's HFetch server.
type Agent struct {
	api   ServerAPI
	fs    *pfs.FS
	stats *telemetry.ReadStats

	// Telemetry handles; nil when disabled (their methods no-op).
	tele    *telemetry.Registry
	pfsHist *telemetry.Histogram
}

// New creates an agent. stats may be shared across agents of one
// emulated application; nil allocates a private collector.
func New(api ServerAPI, fs *pfs.FS, stats *telemetry.ReadStats) *Agent {
	if stats == nil {
		stats = telemetry.NewReadStats()
	}
	return &Agent{api: api, fs: fs, stats: stats}
}

// SetTelemetry attaches a registry: every ReadAt records a client_read
// pipeline span and PFS-fallback reads record their latency under
// hfetch_tier_read_nanos{tier="pfs"}. Call before traffic; nil is
// ignored.
func (a *Agent) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	a.tele = reg
	a.pfsHist = reg.Histogram("hfetch_tier_read_nanos",
		"prefetched-read latency by serving tier in nanoseconds", "tier", "pfs")
}

// Stats returns the agent's I/O statistics collector.
func (a *Agent) Stats() *telemetry.ReadStats { return a.stats }

// File is an open handle participating in a prefetching epoch.
type File struct {
	a    *Agent
	name string
	size int64

	mu     sync.Mutex
	pos    int64 // sequential cursor for Read/Seek
	closed bool
}

// Open opens file for reading and begins (or joins) its prefetching
// epoch. Mirrors fopen with read flags; opening a missing file fails.
func (a *Agent) Open(name string) (*File, error) {
	fi, err := a.fs.Stat(name)
	if err != nil {
		return nil, fmt.Errorf("agent: open: %w", err)
	}
	a.api.StartEpoch(name, fi.Size)
	return &File{a: a, name: name, size: fi.Size}, nil
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the file size at open time.
func (f *File) Size() int64 { return f.size }

// ReadAt reads len(p) bytes at offset off. Each covered segment is
// served from the tier holding it (a prefetch hit) or from the PFS (a
// miss); the access is reported to the server as an enriched read event.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return 0, fmt.Errorf("agent: read on closed file %q", f.name)
	}
	if off < 0 {
		return 0, fmt.Errorf("agent: negative offset %d", off)
	}
	want := int64(len(p))
	if off >= f.size {
		return 0, nil
	}
	if off+want > f.size {
		want = f.size - off
	}

	start := time.Now()
	segr := f.a.api.Segmenter()
	n := int64(0)
	for n < want {
		cur := off + n
		id := seg.ID{File: f.name, Index: segr.IndexOf(cur)}
		segOff := cur - id.Index*segr.Size()
		segEnd := segr.RangeOf(id, f.size).End()
		chunk := segEnd - cur
		if chunk > want-n {
			chunk = want - n
		}
		if chunk <= 0 {
			break
		}
		dst := p[n : n+chunk]
		if got, tier, ok := f.a.api.ReadPrefetched(id, segOff, dst); ok && int64(got) == chunk {
			f.a.stats.Hit(tier, chunk)
			n += chunk
			continue
		}
		// Miss, or stale mapping (segment demoted or evicted mid-read).
		var pfsStart time.Time
		if f.a.tele != nil {
			pfsStart = time.Now()
		}
		got, _, err := f.a.fs.ReadAt(f.name, cur, dst)
		if err != nil {
			return int(n), fmt.Errorf("agent: pfs read: %w", err)
		}
		if f.a.tele != nil {
			f.a.pfsHist.Observe(int64(time.Since(pfsStart)))
		}
		f.a.stats.Miss(int64(got))
		n += int64(got)
		if int64(got) < chunk {
			break
		}
	}
	elapsed := time.Since(start)
	f.a.stats.ObserveRead(elapsed)
	if f.a.tele.TimeSample() {
		f.a.tele.Span(telemetry.StageClientRead, f.name, segr.IndexOf(off), "", start, elapsed)
	}

	f.a.api.PostEvent(events.Event{
		Op: events.OpRead, File: f.name, Offset: off, Length: n, Time: start,
	})
	return int(n), nil
}

// WriteAt emulates an update to the file: the PFS version is bumped and
// a write event is emitted, which invalidates any prefetched segments
// (consistency between readers and external writers).
func (f *File) WriteAt(off, ln int64) error {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return fmt.Errorf("agent: write on closed file %q", f.name)
	}
	if _, err := f.a.fs.Write(f.name, off, ln); err != nil {
		return err
	}
	if end := off + ln; end > f.size {
		f.mu.Lock()
		f.size = end
		f.mu.Unlock()
	}
	f.a.api.PostEvent(events.Event{
		Op: events.OpWrite, File: f.name, Offset: off, Length: ln, Time: time.Now(),
	})
	return nil
}

// Close ends this reader's participation in the epoch.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	f.a.api.EndEpoch(f.name)
	return nil
}

// Read implements io.Reader: a sequential cursor over the file.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	pos := f.pos
	f.mu.Unlock()
	n, err := f.ReadAt(p, pos)
	if err != nil {
		return n, err
	}
	f.mu.Lock()
	f.pos += int64(n)
	f.mu.Unlock()
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Seek implements io.Seeker for the sequential cursor.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = f.size
	default:
		return 0, fmt.Errorf("agent: bad whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, fmt.Errorf("agent: negative position %d", np)
	}
	f.pos = np
	return np, nil
}

// Interface checks: File is usable anywhere the standard library expects
// a positional or sequential reader.
var (
	_ io.ReaderAt   = (*File)(nil)
	_ io.ReadSeeker = (*File)(nil)
)
