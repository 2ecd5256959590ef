package baselines

import (
	"time"

	"hfetch/internal/pfs"
)

// None is the no-prefetching baseline: every read is a PFS read.
type None struct{ substrate }

// NewNone creates the baseline over the shared PFS.
func NewNone(fs *pfs.FS) *None { return &None{newSubstrate("none", fs, 0, nil)} }

// Stop implements System.
func (n *None) Stop() {}

// Open implements System.
func (n *None) Open(app, file string) (Handle, error) {
	if _, err := statFile(n.fs, n.name, file); err != nil {
		return nil, err
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
