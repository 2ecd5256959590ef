package cluster

import (
	"sync/atomic"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/auditor"
	"hfetch/internal/telemetry"
)

// Update and invalidation routing message types.
const (
	MsgUpdate = "cluster.update" // []auditor.Update → deliver to engine
	MsgInval  = "cluster.inval"  // file name → invalidate locally
)

// Router is the node-aware placement hop. It sits between the auditor
// and the placement engine (installed via auditor.SetSink, wrapping the
// engine) and partitions score updates by access origin:
//
//   - local origin (empty or this node's name) → the local engine, as
//     before;
//   - foreign origin → shipped over comm to the origin node's router,
//     which delivers them to *its* engine. The effect is the paper's
//     "prefetch where the data will be read": the auditing may happen
//     on whichever node owns the segment's statistics, but the fetch is
//     staged into the tiers of the node whose client is reading.
//
// File invalidations fan out: a write observed anywhere invalidates the
// file's prefetched data on every alive member, closing the stale-read
// window a single-node invalidation would leave on peers holding copies.
//
// Delivery is Notify (fire-and-forget): a lost update costs one
// prefetch opportunity, a lost invalidation is repaired by the mapping
// delete the writer's engine performs on the shared hashmap.
type Router struct {
	self  string
	local auditor.Sink
	mem   *Membership
	reg   *telemetry.Registry

	routedOut atomic.Int64
	routedIn  atomic.Int64
	dropped   atomic.Int64
	invalsOut atomic.Int64

	hopNanos *telemetry.Histogram // routed-message wire hop latency
}

// NewRouter wraps the local engine sink. Incoming handlers are
// registered on mux (the peer-facing mux).
func NewRouter(self string, local auditor.Sink, mem *Membership, mux muxRegistrar, reg *telemetry.Registry) *Router {
	r := &Router{self: self, local: local, mem: mem, reg: reg}
	if mux != nil {
		mux.Register(MsgUpdate, r.handleUpdates)
		mux.Register(MsgInval, r.handleInval)
	}
	if reg != nil {
		reg.CounterFunc("hfetch_cluster_updates_routed_total", "score updates shipped to their origin node", r.routedOut.Load)
		reg.CounterFunc("hfetch_cluster_updates_received_total", "score updates received from peer auditors", r.routedIn.Load)
		reg.CounterFunc("hfetch_cluster_updates_dropped_total", "foreign-origin updates dropped (origin unreachable)", r.dropped.Load)
		reg.CounterFunc("hfetch_cluster_invalidations_sent_total", "file invalidations broadcast to peers", r.invalsOut.Load)
		r.hopNanos = reg.Histogram("hfetch_route_hop_nanos",
			"wire hop latency of routed updates and invalidations in nanoseconds")
	}
	return r
}

// muxRegistrar is the slice of comm.Mux the router needs; narrowed for
// tests.
type muxRegistrar interface {
	Register(msgType string, h comm.Handler)
}

// ScoreUpdated implements auditor.Sink.
func (r *Router) ScoreUpdated(u auditor.Update) {
	if r.isLocal(u.Origin) {
		r.local.ScoreUpdated(u)
		return
	}
	r.ship(u.Origin, []auditor.Update{u})
}

// ScoreBatch implements auditor.BatchSink: one partition pass, one
// delivery per destination.
func (r *Router) ScoreBatch(ups []auditor.Update) {
	var local []auditor.Update
	var foreign map[string][]auditor.Update
	for _, u := range ups {
		if r.isLocal(u.Origin) {
			local = append(local, u)
			continue
		}
		if foreign == nil {
			foreign = make(map[string][]auditor.Update)
		}
		foreign[u.Origin] = append(foreign[u.Origin], u)
	}
	if len(local) > 0 {
		if bs, ok := r.local.(auditor.BatchSink); ok {
			bs.ScoreBatch(local)
		} else {
			for _, u := range local {
				r.local.ScoreUpdated(u)
			}
		}
	}
	for node, batch := range foreign {
		r.ship(node, batch)
	}
}

// FileInvalidated implements auditor.Sink: invalidate locally, then
// broadcast so peers holding prefetched copies of the file drop them.
func (r *Router) FileInvalidated(file string) {
	r.local.FileInvalidated(file)
	if r.mem == nil {
		return
	}
	wrapped := comm.WrapTrace(comm.TraceCtx{Origin: r.self, SentUnixNano: time.Now().UnixNano()},
		appendInval(nil, file))
	for _, name := range r.mem.View() {
		if name == r.self || !r.mem.Usable(name) {
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

func (r *Router) isLocal(origin string) bool {
	return origin == "" || origin == r.self
}

// ship delivers a batch to the origin node's router; unreachable
// origins fall back to the local engine (a prefetch into the wrong
// node's tier still beats no prefetch — the remote-fetch path serves
// it).
func (r *Router) ship(node string, ups []auditor.Update) {
	if r.mem == nil || !r.mem.Usable(node) {
		r.dropped.Add(1)
		r.deliverLocal(ups)
		return
	}
	p, err := r.mem.Peer(node)
	if err == nil {
		now := time.Now()
		err = p.Notify(MsgUpdate, comm.WrapTrace(
			comm.TraceCtx{Origin: r.self, SentUnixNano: now.UnixNano()}, appendUpdates(nil, ups)))
		if err == nil {
			// Updates with a sampled trace get a route span on this
			// node's in-flight entry: the hop is now part of the
			// segment's lifecycle.
			if lc := r.reg.Lifecycle(); lc != nil {
				for _, u := range ups {
					if u.Trace != 0 {
						lc.Record(telemetry.StageRoute, u.ID.File, u.ID.Index, node, now, 0)
					}
				}
			}
		}
	}
	if err != nil {
		r.mem.DropPeer(node)
		r.dropped.Add(1)
		r.deliverLocal(ups)
		return
	}
	r.routedOut.Add(int64(len(ups)))
}

// deliverLocal hands updates to the local engine with their origin
// cleared, so a re-entrant routing decision cannot loop.
func (r *Router) deliverLocal(ups []auditor.Update) {
	for i := range ups {
		ups[i].Origin = ""
	}
	if bs, ok := r.local.(auditor.BatchSink); ok {
		bs.ScoreBatch(ups)
		return
	}
	for _, u := range ups {
		r.local.ScoreUpdated(u)
	}
}

func (r *Router) handleUpdates(raw []byte) ([]byte, error) {
	tc, raw := comm.UnwrapTrace(raw)
	ups, err := parseUpdates(raw)
	if err != nil {
		return nil, err
	}
	r.routedIn.Add(int64(len(ups)))
	if !tc.Zero() {
		now := time.Now()
		hop := tc.HopLatency(now)
		r.hopNanos.Observe(int64(hop))
		// Arrival spans for traced updates: recorded under the foreign
		// trace ID with the hop duration, so the merged fleet export
		// shows the wire hop between the two nodes' lanes.
		if lc := r.reg.Lifecycle(); lc != nil {
			sent := time.Unix(0, tc.SentUnixNano)
			for _, u := range ups {
				if u.Trace != 0 {
					lc.RecordPeer(u.Trace, telemetry.StageRoute, u.ID.File, u.ID.Index, tc.Origin, sent, hop)
				}
			}
		}
	}
	r.deliverLocal(ups)
	return nil, nil
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
