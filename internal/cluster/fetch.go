package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/seg"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// remoteViewer issues one direct peer read and hands back the received
// payload by reference; implemented by *server.Server. The Fetcher
// shares that buffer among its waiters instead of filling one of its
// own.
type remoteViewer interface {
	ViewRemote(node, tier string, id seg.ID, off int64, length int) (comm.Reply, bool, error)
}

// FetcherConfig wires the cross-node fetch path to its node.
type FetcherConfig struct {
	// Telemetry, when non-nil, exports fetch counters and the per-peer
	// latency histogram.
	Telemetry *telemetry.Registry
}

// The per-peer cooldown after a transport failure starts at backoffBase
// and doubles per failure up to backoffMax; suspectAfter consecutive
// failures report the peer suspect to membership.
const (
	backoffBase  = 100 * time.Millisecond
	backoffMax   = 5 * time.Second
	suspectAfter = 3
)

// Fetcher is a server's one peer read path, installed via
// server.SetRemoteReader. On a local miss whose mapping points at a
// peer's tier it serves the read over comm — the peer's RAM/NVMe is
// still far faster than the PFS — with three guards so a sick cluster
// degrades to PFS passthrough instead of stalling reads:
//
//   - a membership gate: suspect or dead peers are never asked;
//   - single-flight: concurrent reads of the same remote range share
//     one request;
//   - per-peer cooldown with doubling backoff after transport failures,
//     and a suspect report to membership after suspectAfter consecutive
//     failures.
//
// Lock discipline: mu is released before any network call ("cluster
// fetch mu" in the lock order manifest).
type Fetcher struct {
	mem  *Membership
	call remoteViewer

	mu       sync.Mutex
	inflight map[fetchKey]*fetchCall
	cooldown map[string]*peerCooldown

	fetches *telemetry.CounterVec // outcome: hit|stale|error|gated|shared
	latency *telemetry.HistVec    // per-peer fetch nanos
	histMu  sync.Mutex
	// histByWho holds each peer's one fetch-latency histogram: the
	// registry's labelled one when there is a registry, so PeerP99 and
	// FetchSnapshot read what /metrics shows.
	histByWho map[string]*telemetry.Histogram
}

// fetchKey identifies one in-flight remote range.
type fetchKey struct {
	node, tier string
	id         seg.ID
	off        int64
	length     int
}

// fetchCall is one single-flight remote read, pooled. refs counts the
// leader plus every waiter that joined while the call sat in the
// inflight map (joins happen under Fetcher.mu, before the leader deletes
// the entry, so the count can only grow while the buffer is still
// shared); the last release gives the payload back to its owner and the
// record to the pool, after every waiter's Wait has returned.
type fetchCall struct {
	done sync.WaitGroup // the leader's one Done wakes every waiter
	ok   bool
	rep  comm.Reply // the received response; rep.Body is what waiters copy
	refs atomic.Int32
}

var fetchCalls = sync.Pool{New: func() any { return new(fetchCall) }}

// fill copies the shared payload into one reader's buffer and drops
// that reader's reference.
func (c *fetchCall) fill(p []byte) (int, bool) {
	n, served := 0, c.ok
	if served {
		n = copy(p, c.rep.Body)
		tiers.CountCopied(int64(n))
	}
	if c.refs.Add(-1) == 0 {
		c.rep.Release()
		c.ok, c.rep = false, comm.Reply{}
		fetchCalls.Put(c)
	}
	return n, served
}

type peerCooldown struct {
	failures int
	nextTry  time.Time
	backoff  time.Duration
}

// NewFetcher builds the fetch path over a membership view and a direct
// caller (the local server).
func NewFetcher(cfg FetcherConfig, mem *Membership, call remoteViewer) *Fetcher {
	f := &Fetcher{
		mem:       mem,
		call:      call,
		inflight:  make(map[fetchKey]*fetchCall),
		cooldown:  make(map[string]*peerCooldown),
		histByWho: make(map[string]*telemetry.Histogram),
	}
	if reg := cfg.Telemetry; reg != nil {
		f.fetches = reg.CounterVec("hfetch_cluster_fetches_total", "cross-node segment fetches by outcome", "outcome")
		f.latency = reg.HistVec("hfetch_peer_fetch_nanos", "cross-node fetch latency by peer in nanoseconds", "peer")
	}
	return f
}

// ReadRemote implements server.RemoteReader. ok=false means "go to the
// PFS" — the caller cannot distinguish why, by design: every failure
// mode of the remote path has the same safe fallback.
func (f *Fetcher) ReadRemote(node, tier string, id seg.ID, off int64, p []byte) (int, bool) {
	if !f.mem.Usable(node) || !f.admit(node) {
		f.outcome("gated")
		return 0, false
	}

	key := fetchKey{node: node, tier: tier, id: id, off: off, length: len(p)}
	f.mu.Lock()
	if c, ok := f.inflight[key]; ok {
		c.refs.Add(1)
		f.mu.Unlock()
		c.done.Wait()
		n, served := c.fill(p)
		if served {
			f.outcome("shared")
		}
		return n, served
	}
	c := fetchCalls.Get().(*fetchCall)
	c.refs.Store(1)
	c.done.Add(1)
	f.inflight[key] = c
	f.mu.Unlock()

	// Leader: perform the request with no fetcher lock held. The
	// received payload is shared with every waiter by refcount.
	start := time.Now()
	rep, ok, err := f.call.ViewRemote(node, tier, id, off, len(p))
	d := time.Since(start)
	f.settle(node, err)
	switch {
	case err != nil:
		f.outcome("error")
	case !ok:
		f.outcome("stale")
	default:
		f.outcome("hit")
		f.observeLatency(node, d)
	}

	c.ok, c.rep = ok && err == nil, rep
	f.mu.Lock()
	delete(f.inflight, key)
	f.mu.Unlock()
	c.done.Done()
	return c.fill(p)
}

// admit checks the per-peer cooldown window.
func (f *Fetcher) admit(node string) bool {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	cd := f.cooldown[node]
	return cd == nil || !now.Before(cd.nextTry)
}

// settle updates the cooldown state after an attempt: transport errors
// open (and double) the backoff window; any completed exchange —
// success or a clean "not resident" — closes it.
func (f *Fetcher) settle(node string, err error) {
	f.mu.Lock()
	if err == nil {
		delete(f.cooldown, node)
		f.mu.Unlock()
		return
	}
	cd := f.cooldown[node]
	if cd == nil {
		cd = &peerCooldown{backoff: backoffBase}
		f.cooldown[node] = cd
	}
	cd.failures++
	cd.nextTry = time.Now().Add(cd.backoff)
	cd.backoff = min(2*cd.backoff, backoffMax)
	suspect := cd.failures >= suspectAfter
	f.mu.Unlock()
	if suspect {
		f.mem.Suspect(node)
	}
}

func (f *Fetcher) outcome(o string) {
	if f.fetches != nil {
		f.fetches.With(o).Inc()
	}
}

func (f *Fetcher) observeLatency(node string, d time.Duration) {
	f.histMu.Lock()
	h := f.histByWho[node]
	if h == nil {
		h = f.latency.With(node)
		if h == nil {
			h = &telemetry.Histogram{}
		}
		f.histByWho[node] = h
	}
	f.histMu.Unlock()
	h.Observe(int64(d))
}

// PeerP99 returns the observed cross-node fetch p99 for node in
// nanoseconds (0 when no fetches have completed).
func (f *Fetcher) PeerP99(node string) int64 {
	f.histMu.Lock()
	h := f.histByWho[node]
	f.histMu.Unlock()
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(0.99)
}

// FetchSnapshot merges every peer's fetch-latency histogram into one
// snapshot, for aggregate quantiles across the whole remote path.
func (f *Fetcher) FetchSnapshot() telemetry.HistSnapshot {
	f.histMu.Lock()
	defer f.histMu.Unlock()
	var out telemetry.HistSnapshot
	for _, h := range f.histByWho {
		out.Merge(h.Snapshot())
	}
	return out
}
