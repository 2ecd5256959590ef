// Package server composes the HFetch server that runs on every compute
// node: the hardware monitor (event queue + daemon pool), the file
// segment auditor, the hierarchical data placement engine, the
// data-prefetching I/O clients, and the agent manager that client agents
// talk to. The auditor's epoch table is the inotify-emulation watch
// table: the first opener of a file opens its epoch, the last closer
// closes it, and only files inside an epoch generate events.
package server

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/auditor"
	"hfetch/internal/core/heatmap"
	"hfetch/internal/core/ioclient"
	"hfetch/internal/core/monitor"
	"hfetch/internal/core/placement"
	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
	"hfetch/internal/dhm"
	"hfetch/internal/events"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// Config configures one HFetch server node.
type Config struct {
	// Node names this server in the cluster (default "node0").
	Node string
	// SegmentSize is the prefetching grain in bytes (default 1 MiB).
	SegmentSize int64
	// Score are the Equation (1) parameters.
	Score score.Params
	// SeqBoost is the sequencing readahead weight (see auditor.Config).
	SeqBoost float64
	// HeatDir, when set, persists per-file heatmaps across epochs.
	HeatDir string
	// Monitor configures the hardware monitor (daemon pool, queue).
	Monitor monitor.Config
	// Engine configures the placement engine (reactiveness, workers).
	Engine placement.Config
	// SharedTiers names tiers whose store is one cluster-wide instance
	// (burst buffers): segments mapped there by any node are read
	// locally instead of through the node-to-node communicator.
	SharedTiers []string
	// FetchWait bounds how long a missing read waits for an in-flight
	// mover fetch of the same segment before falling back to the PFS,
	// avoiding the double-read where a client re-fetches bytes the mover
	// is already moving. Zero disables the wait.
	FetchWait time.Duration
	// Telemetry, when non-nil, is the node's metric registry: the server
	// wires it through the monitor, auditor, placement engine and I/O
	// client, and instruments its own read path. Nil disables all
	// instrumentation at ~zero hot-path cost.
	Telemetry *telemetry.Registry
}

// Server is one node's HFetch server.
type Server struct {
	cfg  Config
	fs   *pfs.FS
	hier *tiers.Hierarchy
	segr *seg.Segmenter

	aud *auditor.Auditor
	mon *monitor.Monitor
	eng *placement.Engine
	ioc *ioclient.Client

	shared map[string]bool

	// peers reaches other members by name for peer reads; see
	// EnableRemote.
	peers comm.Peers

	// remote is the one peer read path (cluster.Fetcher); see
	// SetRemoteReader.
	remote RemoteReader

	remoteReads  atomic.Int64
	remoteServes atomic.Int64

	// Server-side I/O accounting: every ReadPrefetched outcome, local or
	// on behalf of a remote agent. The registry's hit and miss families
	// are views over it.
	iostats *telemetry.ReadStats

	// Telemetry handles for the read hot path; nil when disabled.
	tele      *telemetry.Registry
	readHist  *telemetry.HistVec
	stallHist *telemetry.Histogram

	stalls       atomic.Int64
	stallRescues atomic.Int64
	stallNanos   atomic.Int64 // time reads waited on a fetch in flight
	zeroCopy     atomic.Int64 // payload bytes served by reference from pinned views

	started bool
}

// RemoteReader serves a segment read from a peer node's tier. ok is
// false when the caller must fall back to the PFS (peer dead, suspect,
// timed out, or the mapping is stale). Implemented by cluster.Fetcher.
type RemoteReader interface {
	ReadRemote(node, tier string, id seg.ID, off int64, p []byte) (int, bool)
}

// SetRemoteReader installs, before the server serves reads, the path
// every read from another node's tier takes; without one, the PFS.
func (s *Server) SetRemoteReader(r RemoteReader) { s.remote = r }

// New builds a server over the shared PFS, this node's tier hierarchy,
// and the cluster's stats/maps hashmaps (single-node callers can pass
// fresh local dhm.Maps; see NewLocalMaps).
func New(cfg Config, fs *pfs.FS, hier *tiers.Hierarchy, stats, maps *dhm.Map) (*Server, error) {
	if cfg.Node == "" {
		cfg.Node = "node0"
	}
	segr := seg.NewSegmenter(cfg.SegmentSize)
	audCfg := auditor.Config{
		Node:      cfg.Node,
		Segmenter: segr,
		Score:     cfg.Score,
		SeqBoost:  cfg.SeqBoost,
		Telemetry: cfg.Telemetry,
	}
	if cfg.HeatDir != "" {
		hs, err := heatmap.NewStore(cfg.HeatDir)
		if err != nil {
			return nil, fmt.Errorf("server: heatmap store: %w", err)
		}
		audCfg.Heatmaps = hs
	}
	aud := auditor.New(audCfg, stats, maps)
	ioc := ioclient.New(fs, segr)
	ioc.SetTelemetry(cfg.Telemetry)
	cfg.Engine.Telemetry = cfg.Telemetry
	eng := placement.New(cfg.Engine, hier, ioc, aud)
	aud.SetSink(eng)
	aud.SetLanding(eng.Landing())
	cfg.Monitor.Telemetry = cfg.Telemetry
	mon := monitor.New(cfg.Monitor, aud)
	shared := make(map[string]bool, len(cfg.SharedTiers))
	for _, n := range cfg.SharedTiers {
		shared[n] = true
	}
	s := &Server{
		cfg:     cfg,
		fs:      fs,
		hier:    hier,
		segr:    segr,
		aud:     aud,
		mon:     mon,
		eng:     eng,
		ioc:     ioc,
		shared:  shared,
		iostats: telemetry.NewReadStats(),
	}
	if reg := cfg.Telemetry; reg != nil {
		s.tele = reg
		if lc := reg.Lifecycle(); lc != nil {
			lc.SetGrain(segr.Size())
			lc.SetOrigin(cfg.Node)
		}
		reg.CounterFunc("hfetch_read_misses_total", "segment reads that fell back to the PFS", s.iostats.Misses)
		s.readHist = reg.HistVec("hfetch_tier_read_nanos", "prefetched-read latency by serving tier in nanoseconds", "tier")
		s.stallHist = reg.Histogram("hfetch_read_stall_nanos", "time reads blocked waiting for an in-flight mover fetch")
		reg.CounterFunc("hfetch_read_stall_rescues_total", "stalled reads served from a tier after the fetch landed", s.stallRescues.Load)
		reg.CounterFunc("hfetch_remote_reads_total", "segment reads issued to peer nodes", s.remoteReads.Load)
		reg.CounterFunc("hfetch_remote_serves_total", "segment reads served for peer nodes", s.remoteServes.Load)
		reg.CounterFunc("hfetch_read_zero_copy_total", "payload bytes served by reference from pinned tier buffers", s.zeroCopy.Load)
		reg.CounterFunc("hfetch_slab_hits_total", "segment buffers served from the slab free lists", tiers.SlabHits)
		reg.CounterFunc("hfetch_slab_misses_total", "slab requests that mapped a new chunk or fell back to a plain allocation", tiers.SlabMisses)
		reg.CounterFunc("hfetch_slab_frees_total", "segment buffers returned to the slab free lists", tiers.SlabFrees)
		reg.GaugeFunc("hfetch_slab_inuse_bytes", "slab bytes handed out and not yet returned: resident payload plus buffers in flight", tiers.SlabInUseBytes)
		reg.GaugeFunc("hfetch_slab_mapped_bytes", "address space the slab has mapped outside the Go heap (never falls)", tiers.SlabMappedBytes)
		for _, st := range hier.Stores() {
			st := st
			reg.CounterFunc("hfetch_tier_read_hits_total", "segment reads served from the tier", s.iostats.TierCounter(st.Name()), "tier", st.Name())
			reg.GaugeFunc("hfetch_tier_capacity_bytes", "tier cache capacity", func() int64 { return st.Capacity() }, "tier", st.Name())
			reg.GaugeFunc("hfetch_tier_used_bytes", "tier bytes resident", func() int64 { return st.Used() }, "tier", st.Name())
			reg.GaugeFunc("hfetch_tier_segments", "segments resident in the tier", func() int64 { return int64(st.Len()) }, "tier", st.Name())
		}
	}
	return s, nil
}

// NewMaps returns a node's stats and mapping hashmaps. roster lists the
// members at boot (nil: this node alone); peers reaches remote owners and
// mux carries their operations (both nil for a node alone). A cluster
// fabric grows or shrinks the roster through Rebalance on view changes.
// When walPath is non-empty the maps are backed by a write-ahead log and
// the segment statistics it holds are replayed into them, so they survive
// restarts and power-downs (the fault tolerance the paper's distributed
// hashmap provides). Mappings are not replayed: they point at volatile
// tier payloads that did not survive the restart.
func NewMaps(node string, roster []string, peers comm.Peers, mux *comm.Mux, walPath string) (stats, maps *dhm.Map, wal *dhm.WAL, err error) {
	var state map[string]map[dhm.Key]any
	if walPath != "" {
		var rerr error
		state, rerr = dhm.Replay(walPath)
		wal, err = dhm.OpenWAL(walPath)
		if err != nil {
			return nil, nil, nil, err
		}
		if rerr != nil {
			state = nil
		}
	}
	stats = dhm.New(dhm.Config{Name: "hfetch-stats", Self: node, Nodes: roster, Peers: peers, WAL: wal}, mux)
	maps = dhm.New(dhm.Config{Name: "hfetch-maps", Self: node, Nodes: roster, Peers: peers, WAL: wal}, mux)
	if state != nil {
		stats.Restore(state)
	}
	return stats, maps, wal, nil
}

// NewLocalMaps is NewMaps for a node alone without a log.
func NewLocalMaps(node string) (stats, maps *dhm.Map) {
	stats, maps, _, _ = NewMaps(node, nil, nil, nil, "")
	return stats, maps
}

// Start launches the monitor daemons and the placement engine.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	s.mon.Start()
	s.eng.Start()
}

// Stop flushes and terminates all components, then clears the tiers this
// server owns: their residents are slab memory, which no collector gives
// back, and with the mover drained nothing lands any more. A shared
// tier is its builder's to clear; a pinned view outlives the clear until
// its own Release.
func (s *Server) Stop() {
	if !s.started {
		return
	}
	s.started = false
	s.mon.Stop()
	s.eng.Stop()
	for _, st := range s.hier.Stores() {
		if !s.shared[st.Name()] {
			st.Clear()
		}
	}
}

// Flush waits until every event posted so far has been audited (5 s at
// most; an expiry is logged by the monitor), runs one placement pass and
// waits for its moves to land. Intended for tests and experiments that
// need determinism between phases.
func (s *Server) Flush() {
	// Quiescence, not an empty backlog: a daemon that popped a batch but
	// has not finished auditing it would otherwise slip past the barrier
	// and deliver its score updates after the placement pass below.
	s.mon.WaitQuiescent(5 * time.Second)
	s.eng.Flush()
}

// ---- agent manager API ----

// StartEpoch begins a prefetching epoch for an opening reader; the
// file's events are audited from the first opener on.
func (s *Server) StartEpoch(file string, size int64) {
	s.aud.StartEpoch(file, size)
}

// EndEpoch ends one reader's epoch; the last closer stops the file's
// events. Closing an epoch is a barrier: queued events are drained first,
// so the persisted heatmap reflects every access of the epoch.
func (s *Server) EndEpoch(file string) {
	s.aud.EndEpoch(file, func() { s.mon.WaitQuiescent(2 * time.Second) })
}

// Lookup resolves where a segment is prefetched: the owning node and
// tier. ok is false when it must be read from the PFS.
func (s *Server) Lookup(id seg.ID) (node, tier string, ok bool) {
	return s.aud.Mapping(id)
}

// ReadPrefetched serves a read of segment id at intra-segment offset off
// from wherever the hierarchy holds it: a local tier, a shared tier, or
// a remote node's tier through the node-to-node communicator. ok is
// false (and tier empty) when the caller must go to the PFS.
//
// When the mover has a fetch of the segment in flight, a missing
// read stalls up to Config.FetchWait for it to land instead of falling
// back to the PFS — one bounded wait instead of a duplicate origin read.
//
//hfetch:hotpath
func (s *Server) ReadPrefetched(id seg.ID, off int64, p []byte) (n int, tier string, ok bool) {
	var start time.Time
	timed := s.tele.TimeSample()
	if timed {
		start = time.Now()
	}
	lc := s.tele.Lifecycle()
	n, tier, ok = s.serve(id, off, p)
	stalled := false
	if !ok && s.cfg.FetchWait > 0 {
		if waited, landed := s.eng.WaitInflight(id, s.cfg.FetchWait); waited > 0 {
			s.stalls.Add(1)
			s.stallNanos.Add(int64(waited))
			if s.stallHist != nil {
				s.stallHist.Observe(int64(waited))
			}
			if landed {
				if n, tier, ok = s.serve(id, off, p); ok {
					s.stallRescues.Add(1)
					stalled = true
				}
			}
		}
	}
	if !ok {
		if lc != nil {
			lc.OnReadMiss(id.File, id.Index)
		}
		s.iostats.Miss(int64(len(p)))
		if timed {
			s.sampleAccess(lc, id, off, len(p), "", start)
		}
		return 0, "", false
	}
	if lc != nil {
		lc.OnReadHit(id.File, id.Index, tier, stalled)
	}
	s.iostats.Hit(tier, int64(n))
	if timed {
		d := time.Since(start)
		s.iostats.ObserveRead(d)
		s.readHist.With(tier).Observe(int64(d))
		s.sampleAccess(lc, id, off, len(p), tier, start)
	}
	return n, tier, true
}

// sampleAccess feeds the folded access recorder, reusing the read path's
// existing time sample so no extra clock reads happen off-sample. Tier is
// empty for misses.
//
//hfetch:hotpath
func (s *Server) sampleAccess(lc *telemetry.Lifecycle, id seg.ID, off int64, length int, tier string, start time.Time) {
	if lc == nil {
		return
	}
	al := lc.AccessLog()
	if al == nil {
		return
	}
	al.Record(telemetry.AccessSample{
		When:   start,
		File:   id.File,
		Offset: id.Index*s.segr.Size() + off,
		Length: int64(length),
		Tier:   tier,
		//lint:allow hotpath reached only under the caller's TimeSample gate; completes the sampled read latency
		Latency: time.Since(start),
	})
}

// serve resolves the segment mapping and reads from the resolved tier,
// local or remote. ok is false on an absent or stale mapping (the
// segment is not actually resident where the mapping says).
//
//hfetch:hotpath
func (s *Server) serve(id seg.ID, off int64, p []byte) (n int, tier string, ok bool) {
	node, tier, ok := s.aud.Mapping(id)
	if !ok {
		return 0, "", false
	}
	if node == "" || node == s.cfg.Node || s.shared[tier] {
		st, _ := s.hier.ByName(tier)
		if st == nil {
			return 0, "", false
		}
		var err error
		n, _, err = st.ReadAt(id, off, p)
		ok = err == nil
	} else if s.remote != nil {
		n, ok = s.remote.ReadRemote(node, tier, id, off, p)
	} else {
		return 0, "", false // no peer read path: the PFS serves it
	}
	if !ok {
		return 0, "", false
	}
	return n, tier, true
}

// StallStats reports (reads that waited on an in-flight fetch, waits
// that were then served from a tier).
func (s *Server) StallStats() (stalls, rescues int64) {
	return s.stalls.Load(), s.stallRescues.Load()
}

// StallTime reports how long reads have waited on fetches in flight in
// all: the time a prefetch that arrived late cost its readers.
func (s *Server) StallTime() time.Duration {
	return time.Duration(s.stallNanos.Load())
}

// ---- node-to-node data path ----

const msgRemoteRead = "srv.read"

// EnableRemote wires the server into the cluster fabric, before it
// serves reads: mux receives this node's remote-read handler, peers
// reaches the members whose tiers it reads.
func (s *Server) EnableRemote(mux *comm.Mux, peers comm.Peers) {
	s.peers = peers
	mux.RegisterReply(msgRemoteRead, s.serveRemoteRead)
}

// serveRemoteRead answers one srv.read: the reply's body is the pinned
// resident payload itself, and the pin is the reply's Owner — the
// transport drops it once the frame is on the wire (or, in process, the
// reading node does when it has consumed the bytes). No byte of the
// payload is copied on this node; tier and file are read in place.
//
//hfetch:hotpath
func (s *Server) serveRemoteRead(head []byte) (comm.Reply, error) {
	tc, head := comm.UnwrapTrace(head)
	var serveStart time.Time
	if !tc.Zero() {
		//lint:allow hotpath traced requests only (the caller sampled this segment's lifecycle)
		serveStart = time.Now()
	}
	req, err := parseReadReq(head)
	if err != nil {
		return comm.Reply{}, err
	}
	s.remoteServes.Add(1)
	rep := comm.Reply{Head: readRespMiss}
	if st, _ := s.hier.ByName(req.Tier); st != nil {
		if b, resident := st.View(seg.ID{File: req.File, Index: req.Idx}); resident {
			data := b.Bytes()
			if req.Off >= 0 && req.Off < int64(len(data)) {
				end := req.Off + int64(req.Len)
				if end > int64(len(data)) {
					end = int64(len(data))
				}
				st.ChargeRead(end - req.Off)
				rep = comm.Reply{Head: readRespOK, Body: data[req.Off:end], Owner: b}
			} else {
				b.Release()
			}
		}
	}
	// A traced request gets a serve span on this node's lane: the
	// segment's lifecycle now shows which peer served the bytes.
	if !tc.Zero() {
		if lc := s.tele.Lifecycle(); lc != nil {
			//lint:allow hotpath completes the traced request's serve span
			d := time.Since(serveStart)
			// The span outlives the head its names alias: copy them.
			lc.RecordPeer(tc.ID, telemetry.StagePeerFetchServe, strings.Clone(req.File), req.Idx, strings.Clone(req.Tier), serveStart, d)
		}
	}
	return rep, nil
}

// ViewRemote issues one peer read request with no retry or
// single-flight policy and returns the payload by reference: rep.Body
// is the buffer the response frame's body was received into (over TCP a
// slab buffer, in process the peer's pinned tier bytes), and the caller
// must Release rep exactly once. The three results distinguish the two
// failure modes a policy layer treats differently: err != nil is a
// transport failure (no peer, dial/request error — the peer should be
// penalized), while (ok=false, err=nil) is a clean "not resident"
// answer from a healthy peer (stale mapping — fall back to the PFS,
// peer is fine). cluster.Fetcher, its only caller on the read path,
// builds its backoff and suspect logic on this split.
func (s *Server) ViewRemote(node, tier string, id seg.ID, off int64, length int) (rep comm.Reply, ok bool, err error) {
	if s.peers == nil {
		return comm.Reply{}, false, fmt.Errorf("server: no peer for node %q", node)
	}
	s.remoteReads.Add(1)
	peer, err := s.peers.Peer(node)
	if err != nil {
		return comm.Reply{}, false, err
	}
	hb := comm.NewHeadBuf()
	head := appendReadReq(hb.B, remoteReadReq{Tier: tier, File: id.File, Idx: id.Index, Off: off, Len: length})
	// Propagate the segment's lifecycle trace (when sampled) so the
	// serving peer's span lands under the same trace ID.
	if lc := s.tele.Lifecycle(); lc != nil {
		if tid := lc.Current(id.File, id.Index); tid != 0 {
			head = comm.WrapTrace(comm.TraceCtx{
				ID: tid, Origin: s.cfg.Node, SentUnixNano: time.Now().UnixNano(),
			}, head)
		}
	}
	rep, err = comm.Call(peer, msgRemoteRead, head)
	hb.Release()
	if err != nil {
		if !comm.IsRemote(err) {
			// The next attempt redials, at the address membership then
			// holds (a restarted node's new transport).
			s.peers.DropPeer(node)
		}
		return comm.Reply{}, false, err
	}
	ok, err = parseReadResp(rep.Head)
	if err == nil && len(rep.Body) > length {
		err = fmt.Errorf("server: peer %q answered a %d-byte read with %d bytes", node, length, len(rep.Body))
	}
	if err != nil || !ok {
		rep.Release()
		return comm.Reply{}, false, err
	}
	return rep, true, nil
}

// RemoteStats reports (requests issued to peers, requests served for
// peers).
func (s *Server) RemoteStats() (reads, serves int64) {
	return s.remoteReads.Load(), s.remoteServes.Load()
}

// PostEvent accepts an enriched file-system event. Only events for
// files inside an epoch enter the queue, mirroring inotify semantics.
func (s *Server) PostEvent(ev events.Event) {
	if !s.aud.EpochOpen(ev.File) {
		return
	}
	s.mon.Post(ev)
}

// ---- accessors ----

// Node returns this server's cluster node name.
func (s *Server) Node() string { return s.cfg.Node }

// Segmenter returns the node's segment grain.
func (s *Server) Segmenter() *seg.Segmenter { return s.segr }

// FS returns the shared PFS.
func (s *Server) FS() *pfs.FS { return s.fs }

// Hierarchy returns this node's tier hierarchy.
func (s *Server) Hierarchy() *tiers.Hierarchy { return s.hier }

// Auditor returns the file segment auditor.
func (s *Server) Auditor() *auditor.Auditor { return s.aud }

// Engine returns the placement engine.
func (s *Server) Engine() *placement.Engine { return s.eng }

// Monitor returns the hardware monitor.
func (s *Server) Monitor() *monitor.Monitor { return s.mon }

// IOClient returns the data-prefetching I/O client.
func (s *Server) IOClient() *ioclient.Client { return s.ioc }

// Config returns the configuration the server was built from.
func (s *Server) Config() Config { return s.cfg }

// Telemetry returns the node's metric registry (nil when disabled).
func (s *Server) Telemetry() *telemetry.Registry { return s.cfg.Telemetry }

// IOStats returns the server-side read accounting (hits, misses, bytes,
// per-tier hit counts) for every ReadPrefetched call on this node.
func (s *Server) IOStats() *telemetry.ReadStats { return s.iostats }

// ZeroCopyBytes returns the cumulative payload bytes this server has
// served by reference from pinned tier buffers (no memcpy on the serve
// path). Also exported as the hfetch_read_zero_copy_total counter.
func (s *Server) ZeroCopyBytes() int64 { return s.zeroCopy.Load() }
