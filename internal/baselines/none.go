package baselines

import (
	"fmt"
	"time"

	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
)

// None is the no-prefetching baseline: every read is a PFS read.
type None struct {
	fs    *pfs.FS
	stats *telemetry.ReadStats
}

// NewNone creates the baseline over the shared PFS.
func NewNone(fs *pfs.FS) *None {
	return &None{fs: fs, stats: telemetry.NewReadStats()}
}

// Name implements System.
func (n *None) Name() string { return "none" }

// Stats implements System.
func (n *None) Stats() *telemetry.ReadStats { return n.stats }

// Stop implements System.
func (n *None) Stop() {}

// Open implements System.
func (n *None) Open(app, file string) (Handle, error) {
	if _, err := n.fs.Stat(file); err != nil {
		return nil, fmt.Errorf("none: %w", err)
	}
	return &noneHandle{sys: n, file: file}, nil
}

type noneHandle struct {
	sys  *None
	file string
}

func (h *noneHandle) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	got, _, err := h.sys.fs.ReadAt(h.file, off, p)
	if err != nil {
		return 0, err
	}
	h.sys.stats.Miss(int64(got))
	h.sys.stats.ObserveRead(time.Since(start))
	return got, nil
}

func (h *noneHandle) Close() error { return nil }
