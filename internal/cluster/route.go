package cluster

import (
	"sync/atomic"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/auditor"
	"hfetch/internal/telemetry"
)

// MsgInval is the invalidation message type: a file name, invalidated
// locally on receipt.
const MsgInval = "cluster.inval"

// Router sits between the auditor and the placement engine (installed
// via auditor.SetSink, wrapping the engine) and fans file invalidations
// out: a write observed anywhere invalidates the file's prefetched data
// on every member not judged dead, suspect ones included, closing the
// stale-read window a single-node invalidation would leave on peers
// holding copies.
//
// Score batches go to the local engine unchanged. That engine is the
// reader's: the auditor builds every update on the node where the access
// event was posted, so the data is prefetched where it will be read.
//
// Delivery is Notify (fire-and-forget): a lost invalidation is repaired
// by the mapping delete the writer's engine performs on the shared
// hashmap.
type Router struct {
	self  string
	local auditor.Sink
	mem   *Membership

	invalsOut atomic.Int64

	hopNanos *telemetry.Histogram // invalidation wire hop latency
}

// NewRouter wraps the local engine sink. The invalidation handler is
// registered on mux (the peer-facing mux).
func NewRouter(self string, local auditor.Sink, mem *Membership, mux muxRegistrar, reg *telemetry.Registry) *Router {
	r := &Router{self: self, local: local, mem: mem}
	mux.Register(MsgInval, r.handleInval)
	if reg != nil {
		reg.CounterFunc("hfetch_cluster_invalidations_sent_total", "file invalidations broadcast to peers", r.invalsOut.Load)
		r.hopNanos = reg.Histogram("hfetch_route_hop_nanos",
			"wire hop latency of invalidations in nanoseconds")
	}
	return r
}

// muxRegistrar is the slice of comm.Mux the router needs; narrowed for
// tests.
type muxRegistrar interface {
	Register(msgType string, h comm.Handler)
}

// ScoreBatch implements auditor.Sink: the batch goes to the local engine.
func (r *Router) ScoreBatch(ups []auditor.Update) { r.local.ScoreBatch(ups) }

// FileInvalidated implements auditor.Sink: invalidate locally, then
// broadcast so peers holding prefetched copies of the file drop them.
func (r *Router) FileInvalidated(file string) {
	r.local.FileInvalidated(file)
	wrapped := comm.WrapTrace(comm.TraceCtx{Origin: r.self, SentUnixNano: time.Now().UnixNano()},
		appendInval(nil, file))
	for _, name := range r.mem.View() {
		if name == r.self {
			continue
		}
		p, err := r.mem.Peer(name)
		if err != nil {
			continue
		}
		if err := p.Notify(MsgInval, wrapped); err != nil {
			r.mem.DropPeer(name)
			continue
		}
		r.invalsOut.Add(1)
	}
}

func (r *Router) handleInval(raw []byte) ([]byte, error) {
	tc, raw := comm.UnwrapTrace(raw)
	if !tc.Zero() {
		r.hopNanos.Observe(int64(tc.HopLatency(time.Now())))
	}
	file, err := parseInval(raw)
	if err != nil {
		return nil, err
	}
	// Invalidate only the local engine: the sender already broadcast to
	// every peer, so re-broadcasting here would loop.
	r.local.FileInvalidated(file)
	return nil, nil
}
