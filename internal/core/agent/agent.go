// Package agent implements the HFetch client agent each application
// links against. The paper's agent is a PMPI/POSIX/HDF5 interceptor; in
// this reproduction applications use the agent's Open/ReadAt/Close API
// directly, which exercises the same protocol: open begins a prefetching
// epoch, every read consults the segment mappings and is redirected to
// the tier holding the prefetched segment (falling back to the PFS on a
// miss), and every access emits an enriched event to the server. A read
// that misses emits its event before its first origin read, so the server
// can push what follows while the reader waits on the PFS; a read served
// wholly from tiers emits it afterwards.
package agent

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/events"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
)

// ServerAPI is what an agent needs from its HFetch server. server.Server
// implements it, and so does the benchmark's instantServer, which serves
// every read at once; a remote client reaches the daemon's server over
// the agent protocol instead.
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
	blocked *telemetry.CounterVec
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
// pipeline span and adds its time to hfetch_read_blocked_nanos_total by
// serving tier, and PFS-fallback reads record their latency under
// hfetch_tier_read_nanos{tier="pfs"}. Call before traffic; nil is
// ignored.
func (a *Agent) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	a.tele = reg
	a.pfsHist = reg.Histogram("hfetch_tier_read_nanos",
		"prefetched-read latency by serving tier in nanoseconds", "tier", "pfs")
	a.blocked = reg.CounterVec("hfetch_read_blocked_nanos_total",
		"time read calls blocked their callers, by the tier that served them (pfs when any segment missed)", "tier")
}

// Stats returns the agent's I/O statistics collector.
func (a *Agent) Stats() *telemetry.ReadStats { return a.stats }

// File is an open handle participating in a prefetching epoch.
type File struct {
	a    *Agent
	name string
	size int64
	// done is when this handle's latest read returned, as time since
	// clock; 0 before its first.
	done atomic.Int64

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
	n, _, err := f.a.readAt(f.name, f.size, p, off, &f.done)
	return n, err
}

// clock is the origin of File.done: durations since it are read off the
// times a read already takes, monotonic and without a clock read.
var clock = time.Now()

// ReadAt is File.ReadAt for a reader whose epoch of file name (size
// bytes) is held open elsewhere, as a daemon holds it for its remote
// agents. It posts exactly one read event, for the bytes requested and
// stamped with the request's start: at the first segment that misses,
// before that segment's origin read, or after the reads when tiers served
// them all. tier is the tier of the last segment when every one was a
// hit, "" otherwise. The event's Think is 0: such a reader has no handle.
func (a *Agent) ReadAt(name string, size int64, p []byte, off int64) (int, string, error) {
	return a.readAt(name, size, p, off, nil)
}

// readAt is ReadAt for a handle whose last read returned at done (nil: no
// handle): the event's Think is the gap since, and done moves to this one.
func (a *Agent) readAt(name string, size int64, p []byte, off int64, done *atomic.Int64) (int, string, error) {
	if off < 0 {
		return 0, "", fmt.Errorf("agent: negative offset %d", off)
	}
	want := int64(len(p))
	if off >= size {
		return 0, "", nil
	}
	if off+want > size {
		want = size - off
	}

	start := time.Now()
	ev := events.Event{Op: events.OpRead, File: name, Offset: off, Length: want, Time: start}
	if done != nil {
		if prev := time.Duration(done.Load()); prev > 0 { // else the handle's first read
			ev.Think = max(0, start.Sub(clock)-prev) // 0 after a concurrent read ended
		}
	}
	segr := a.api.Segmenter()
	n, tier, missed := int64(0), "", false
	for n < want {
		cur := off + n
		id := seg.ID{File: name, Index: segr.IndexOf(cur)}
		segOff := cur - id.Index*segr.Size()
		chunk := min(segr.RangeOf(id, size).End()-cur, want-n)
		if chunk <= 0 {
			break
		}
		dst := p[n : n+chunk]
		if got, t, ok := a.api.ReadPrefetched(id, segOff, dst); ok && int64(got) == chunk {
			a.stats.Hit(t, chunk)
			if !missed {
				tier = t
			}
			n += chunk
			continue
		}
		// Miss, or stale mapping (segment demoted or evicted mid-read).
		if !missed {
			missed, tier = true, ""
			a.api.PostEvent(ev)
		}
		var pfsStart time.Time
		if a.tele != nil {
			pfsStart = time.Now()
		}
		got, _, err := a.fs.ReadAt(name, cur, dst)
		if err != nil {
			return int(n), "", fmt.Errorf("agent: pfs read: %w", err)
		}
		if a.tele != nil {
			a.pfsHist.Observe(int64(time.Since(pfsStart)))
		}
		a.stats.Miss(int64(got))
		n += int64(got)
		if int64(got) < chunk {
			break
		}
	}
	elapsed := time.Since(start)
	if done != nil {
		done.Store(int64(start.Sub(clock) + elapsed))
	}
	a.stats.ObserveRead(elapsed)
	servedBy := tier
	if missed {
		servedBy = "pfs"
	}
	a.stats.Blocked(servedBy, elapsed)
	a.blocked.With(servedBy).Add(int64(elapsed))
	if a.tele.TimeSample() {
		a.tele.Span(telemetry.StageClientRead, name, segr.IndexOf(off), "", start, elapsed)
	}
	if !missed {
		a.api.PostEvent(ev)
	}
	return int(n), tier, nil
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
