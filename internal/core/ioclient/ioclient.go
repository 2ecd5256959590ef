// Package ioclient implements HFetch's data-prefetching I/O clients: the
// component that performs the actual byte movement the placement engine
// plans. For every move there is a source (the PFS origin or a tier
// store) and a destination (a tier store, or nothing for an eviction —
// HFetch's cache is exclusive and the PFS always holds the authoritative
// copy, so evicting is a metadata drop).
//
// Movement between tiers is pipelined: Transfer reads from the source
// tier and writes to the destination tier, charging both device models,
// which is how fetching PFS → burst buffer → NVMe → RAM overlaps with
// application reads in the experiments.
//
// A move is two halves — the payload leaves its source (Take, or the origin
// read of FetchMany), then lands (Land) — and the client never waits
// between them: a destination without room refuses at once and the payload
// stays in the caller's hand. Fetch and Transfer, the synchronous forms,
// give up there; the asynchronous mover keeps the payload and lands it when
// the destination's next release wakes it (tiers.RoomWaiter).
package ioclient

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"hfetch/internal/core/seg"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// Stats are cumulative I/O client counters.
type Stats struct {
	Fetches    int64
	Transfers  int64
	Evictions  int64
	BytesMoved int64
}

// errEmpty is a fetch the origin had no bytes for (the segment lies at or
// beyond the end of its file).
var errEmpty = errors.New("empty segment")

// Client moves segment payloads between the PFS and tier stores.
type Client struct {
	fs  *pfs.FS
	seg *seg.Segmenter

	fetches, transfers, evictions, bytes atomic.Int64

	// Telemetry handles; all nil when disabled (their methods no-op).
	tele     *telemetry.Registry
	bytesIn  *telemetry.CounterVec // bytes written into a tier
	bytesOut *telemetry.CounterVec // bytes leaving a tier (demotion source)
	evictVec *telemetry.CounterVec
	moveHist *telemetry.HistVec // per-destination-tier movement latency
}

// New creates a client reading origin data from fs with the given
// segment grain.
func New(fs *pfs.FS, segmenter *seg.Segmenter) *Client {
	return &Client{fs: fs, seg: segmenter}
}

// SetTelemetry attaches a registry: every movement records per-tier
// moved-bytes counters, a per-destination latency histogram, and a
// fetch pipeline span. Call before traffic; nil is ignored.
func (c *Client) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.tele = reg
	c.bytesIn = reg.CounterVec("hfetch_tier_moved_bytes_in_total", "bytes moved into the tier by the I/O client", "tier")
	c.bytesOut = reg.CounterVec("hfetch_tier_moved_bytes_out_total", "bytes moved out of the tier by the I/O client", "tier")
	c.evictVec = reg.CounterVec("hfetch_tier_evictions_total", "segments evicted from the tier", "tier")
	c.moveHist = reg.HistVec("hfetch_tier_move_nanos", "data-movement latency into the tier in nanoseconds", "tier")
	reg.CounterFunc("hfetch_fetches_total", "segment fetches from the PFS", c.fetches.Load)
	reg.CounterFunc("hfetch_transfers_total", "tier-to-tier segment transfers", c.transfers.Load)
}

// Fetch loads segment id from the PFS into dst. size > 0 overrides the
// payload length (clipped segments); size <= 0 reads a full grain. A dst
// without room refuses at once (tiers.ErrNoSpace) and the read is dropped.
func (c *Client) Fetch(id seg.ID, size int64, dst *tiers.Store) error {
	var err error
	c.FetchMany(id.File, id.Index, []int64{size}, dst, nil, func(_ int, held *tiers.Buf, e error) {
		if held != nil {
			held.Release()
		}
		err = e
	})
	return err
}

// FetchMany loads len(sizes) consecutive segments of file, starting at
// segment index first, into dst with as few origin reads as possible: a
// maximal run of full-grain segments is one pfs.ReadAtv — paying the PFS
// latency once for the run instead of once per segment — straight into
// one slab buffer per segment, each handed to the store as it is (no
// span buffer, no copy). A short segment (a clipped file tail, or an
// adaptive grain) ends its run, since the following segment is no longer
// contiguous with it. A size <= 0 or beyond the grain means a full grain.
//
// landed(i, held, err) reports segment first+i, in index order, as soon as
// its own tier write has returned (err nil) or it is known to have failed,
// so a reader of segment i does not wait for the segments behind it. A
// segment dst had no room for is reported with tiers.ErrNoSpace itself and
// its payload, read and paid for, in held: it is landed's to Land later or
// to Release. fetched, when non-nil, is called once, when the call has
// issued its last origin read: what follows is tier writes only. Both run
// on the caller's goroutine with no store lock held (they may call back
// into dst).
func (c *Client) FetchMany(file string, first int64, sizes []int64, dst *tiers.Store, fetched func(), landed func(i int, held *tiers.Buf, err error)) {
	grain := c.seg.Size()
	length := func(k int) int64 {
		if sizes[k] <= 0 || sizes[k] > grain {
			return grain
		}
		return sizes[k]
	}
	// On the stack (ReadAtv keeps no reference); a run of more than 16 grows it.
	bufs := make([][]byte, 0, 16)
	for i, j := 0, 0; i < len(sizes); i = j {
		var start time.Time
		if c.tele != nil {
			start = time.Now()
		}
		// Extend the run while segments stay contiguous: every segment
		// but the run's last must cover its full grain.
		bufs = bufs[:0]
		for j = i; j < len(sizes) && (j == i || length(j-1) == grain); j++ {
			bufs = append(bufs, tiers.SlabGet(length(j)))
		}
		n, _, rerr := c.fs.ReadAtv(file, (first+int64(i))*grain, bufs)
		if j == len(sizes) && fetched != nil {
			fetched()
		}
		left := int64(n)
		for k, buf := range bufs {
			id := seg.ID{File: file, Index: first + int64(i+k)}
			if int64(len(buf)) > left {
				buf = buf[:left]
			}
			left -= int64(len(buf))
			err := rerr
			if err == nil && len(buf) == 0 {
				err = errEmpty
			}
			if err != nil {
				tiers.SlabPut(buf)
				landed(i+k, nil, fmt.Errorf("ioclient: fetch %v into %s: %w", id, dst.Name(), err))
				continue
			}
			// buf came fresh from the slab and is not shared: the store
			// takes it as it is.
			b := tiers.NewBuf(buf)
			if err := c.land(id, b, nil, dst, nil, start); err != nil {
				landed(i+k, b, err)
				continue
			}
			landed(i+k, nil, nil)
		}
	}
}

// Transfer moves a resident segment from src to dst (promotion or
// demotion): Take, then Land. A dst without room refuses at once; the
// payload then goes back to src, or — src refilled meanwhile — is dropped,
// which is an eviction the caller finds out by looking (the stores are the
// truth a failed move is reconciled against).
func (c *Client) Transfer(id seg.ID, src, dst *tiers.Store) error {
	var start time.Time
	if c.tele != nil {
		start = time.Now()
	}
	b, err := c.Take(id, src)
	if err != nil {
		return fmt.Errorf("ioclient: transfer %v from %s: %w", id, src.Name(), err)
	}
	if err = c.land(id, b, src, dst, nil, start); err != nil && src.PutBuf(id, b) != nil {
		b.Release()
	}
	return err
}

// Take is a transfer's first half: the segment leaves src — charged for the
// read, its room free from here on — and its payload, with the store's
// reference, is in the caller's hand: to Land, to put back, or to Release.
// The Buf itself moves, never the bytes, so a reader pinned through the
// move keeps one coherent refcount on one buffer.
func (c *Client) Take(id seg.ID, src *tiers.Store) (*tiers.Buf, error) {
	return src.TakeBuf(id)
}

// Land is the second half, of a transfer (from = the tier the payload
// left) or of a fetch whose payload FetchMany handed back (from nil): b is
// installed in dst. On tiers.ErrNoSpace — returned bare, nothing is
// formatted on this path — b is still the caller's, and w, when non-nil,
// has been left at dst's door (tiers.Store.PutBufWait).
func (c *Client) Land(id seg.ID, b *tiers.Buf, from, dst *tiers.Store, w tiers.RoomWaiter) error {
	var start time.Time
	if c.tele != nil {
		start = time.Now()
	}
	return c.land(id, b, from, dst, w, start)
}

func (c *Client) land(id seg.ID, b *tiers.Buf, from, dst *tiers.Store, w tiers.RoomWaiter, start time.Time) error {
	size := b.Len()
	if err := dst.PutBufWait(id, b, w); err != nil {
		return err
	}
	if from == nil {
		c.fetches.Add(1)
	} else {
		c.transfers.Add(1)
	}
	c.bytes.Add(size)
	if c.tele != nil {
		d := time.Since(start)
		if from != nil {
			c.bytesOut.With(from.Name()).Add(size)
		}
		c.bytesIn.With(dst.Name()).Add(size)
		c.moveHist.With(dst.Name()).Observe(int64(d))
		c.tele.Span(telemetry.StageFetch, id.File, id.Index, dst.Name(), start, d)
	}
	return nil
}

// Evict drops a resident segment from src. The PFS remains the origin,
// so no write-back is needed (WORM data).
func (c *Client) Evict(id seg.ID, src *tiers.Store) error {
	if !src.Delete(id) {
		return tiers.ErrNotFound
	}
	c.evictions.Add(1)
	c.evictVec.With(src.Name()).Inc()
	return nil
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() Stats {
	return Stats{
		Fetches:    c.fetches.Load(),
		Transfers:  c.transfers.Load(),
		Evictions:  c.evictions.Load(),
		BytesMoved: c.bytes.Load(),
	}
}
