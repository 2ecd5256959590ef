// Package remote implements the wire protocol between HFetch agents and
// a standalone HFetch server daemon (cmd/hfetchd). In the emulated
// cluster, agents call the server in-process; across processes the same
// agent operations — open (start epoch), read (prefetched-or-PFS), write
// (invalidate), close (end epoch) — travel over the node-to-node
// communicator. A read has a binary head and its payload rides the
// frame's body by reference, landing on the daemon in a slab buffer the
// transport frees once the frame is written; open, write, close and the
// ctl.* queries are gob-encoded heads.
package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/agent"
	"hfetch/internal/core/server"
	"hfetch/internal/events"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// Message types of the agent protocol.
const (
	MsgOpen    = "agent.open"
	MsgRead    = "agent.read"
	MsgWrite   = "agent.write"
	MsgClose   = "agent.close"
	MsgStats   = "ctl.stats"
	MsgTiers   = "ctl.tiers"
	MsgMetrics = "ctl.metrics"
	MsgTrace   = "ctl.trace"
	// MsgTraceRecs returns the raw lifecycle records plus the node name,
	// so fleet-level callers (hfetchctl trace -fleet) can merge lanes from
	// every member into one multi-process Perfetto export client-side.
	MsgTraceRecs = "ctl.tracerecs"
)

type openReq struct{ File string }
type openResp struct{ Size int64 }

// The agent.read heads; the payload read is the frame's body:
//
//	request:  uvarint len | file | varint off | varint len
//	response: uvarint len | tier   (empty: the PFS served some of it)
var errShortHead = errors.New("remote: agent.read head truncated or malformed")

// readReq is an agent.read request; decoded, File aliases the head.
type readReq struct {
	File     string
	Off, Len int64
}

func appendReadReq(dst []byte, r readReq) []byte {
	dst = comm.AppendString(dst, r.File)
	dst = binary.AppendVarint(dst, r.Off)
	return binary.AppendVarint(dst, r.Len)
}

func parseReadReq(b []byte) (readReq, error) {
	file, b, ok := comm.CutView(b)
	if !ok {
		return readReq{}, errShortHead
	}
	off, b, ok := comm.CutVarint(b)
	if !ok {
		return readReq{}, errShortHead
	}
	n, b, ok := comm.CutVarint(b)
	if !ok || len(b) != 0 {
		return readReq{}, errShortHead
	}
	return readReq{File: file, Off: off, Len: n}, nil
}

// parseReadResp decodes a response head; tier aliases it.
func parseReadResp(b []byte) (tier string, err error) {
	tier, b, ok := comm.CutView(b)
	if !ok || len(b) != 0 {
		return "", errShortHead
	}
	return tier, nil
}

type writeReq struct {
	File string
	Off  int64
	Len  int64
}

type closeReq struct{ File string }

// traceReq selects the lifecycle export format: Chrome trace_event JSON
// (the default, loadable in Perfetto) or the legacy access-record CSV.
// The daemon renders server-side so the wire payload is final bytes.
type traceReq struct{ CSV bool }

type traceReply struct{ Data []byte }

// traceRecsReply is the MsgTraceRecs payload: this node's lifecycle
// records, unrendered, for client-side fleet merging.
type traceRecsReply struct {
	Node string
	Recs []telemetry.TraceRecord
}

// StatsReply is the ctl.stats payload.
type StatsReply struct {
	Node          string
	Events        int64
	Reads         int64
	Invalidations int64
	SegmentsSeen  int64
	EngineRuns    int64
	Placements    int64
	Promotions    int64
	Demotions     int64
	Evictions     int64
	RemoteReads   int64
	RemoteServes  int64
	// IO is the server-side read accounting (hits, misses, bytes,
	// per-tier hit counts) across every agent the daemon serves.
	IO telemetry.ReadSnapshot
}

// TierInfo is one tier's line in the ctl.tiers reply.
type TierInfo struct {
	Name     string
	Capacity int64
	Used     int64
	Segments int
}

func enc(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func dec(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// serveGob registers h for msg: a non-empty head decodes into its
// request, and a non-nil answer is encoded as the reply's head.
func serveGob[Req any](mux *comm.Mux, msg string, h func(Req) (any, error)) {
	mux.Register(msg, func(raw []byte) ([]byte, error) {
		var req Req
		if len(raw) > 0 {
			if err := dec(raw, &req); err != nil {
				return nil, err
			}
		}
		out, err := h(req)
		if err != nil || out == nil {
			return nil, err
		}
		return enc(out)
	})
}

// Serve registers the agent protocol handlers for srv on mux.
func Serve(mux *comm.Mux, srv *server.Server) {
	a := agent.New(srv, srv.FS(), nil)
	a.SetTelemetry(srv.Telemetry())
	serveGob(mux, MsgOpen, func(req openReq) (any, error) {
		fi, err := srv.FS().Stat(req.File)
		if err != nil {
			return nil, err
		}
		srv.StartEpoch(req.File, fi.Size)
		return openResp{Size: fi.Size}, nil
	})
	mux.RegisterReply(MsgRead, func(raw []byte) (comm.Reply, error) { return serveRead(a, srv, raw) })
	serveGob(mux, MsgWrite, func(req writeReq) (any, error) {
		if _, err := srv.FS().Write(req.File, req.Off, req.Len); err != nil {
			return nil, err
		}
		srv.PostEvent(events.Event{Op: events.OpWrite, File: req.File, Offset: req.Off, Length: req.Len})
		return nil, nil
	})
	serveGob(mux, MsgClose, func(req closeReq) (any, error) {
		srv.EndEpoch(req.File)
		return nil, nil
	})
	mux.Register(MsgStats, func(raw []byte) ([]byte, error) {
		return enc(statsReply(srv))
	})
	mux.Register(MsgMetrics, func(raw []byte) ([]byte, error) {
		var snap telemetry.Snapshot
		if reg := srv.Telemetry(); reg != nil {
			snap = reg.Snapshot()
		}
		return enc(snap)
	})
	serveGob(mux, MsgTrace, func(req traceReq) (any, error) {
		data, err := RenderTrace(srv, req.CSV)
		return traceReply{Data: data}, err
	})
	mux.Register(MsgTraceRecs, func(raw []byte) ([]byte, error) {
		reply := traceRecsReply{Node: srv.Node()}
		if lc := srv.Telemetry().Lifecycle(); lc != nil {
			reply.Recs = lc.Export()
		}
		return enc(reply)
	})
	mux.Register(MsgTiers, func(raw []byte) ([]byte, error) { return enc(tierInfos(srv)) })
}

// serveRead performs the server-side read path through the daemon's
// agent, which holds no epoch of its own: the remote agent's open did.
// The bytes land in a slab buffer the reply owns; the head answers in
// the request's buffer, which outlives the response.
func serveRead(a *agent.Agent, srv *server.Server, raw []byte) (comm.Reply, error) {
	req, err := parseReadReq(raw)
	if err == nil && (req.Len <= 0 || req.Off < 0 || req.Len > comm.MaxBody) {
		err = fmt.Errorf("remote: bad read [%d,+%d)", req.Off, req.Len)
	}
	if err != nil {
		return comm.Reply{}, err
	}
	file := strings.Clone(req.File) // the read's event keeps it
	fi, err := srv.FS().Stat(file)
	if err != nil || req.Off >= fi.Size {
		return comm.Reply{Head: comm.AppendString(raw[:0], "")}, err
	}
	out := tiers.SlabGet(min(req.Len, fi.Size-req.Off))
	n, tier, err := a.ReadAt(file, fi.Size, out, req.Off)
	if err != nil {
		tiers.SlabPut(out)
		return comm.Reply{}, err
	}
	b := tiers.NewBuf(out[:n])
	return comm.Reply{Head: comm.AppendString(raw[:0], tier), Body: b.Bytes(), Owner: b}, nil
}

// Client is a remote HFetch agent speaking to an hfetchd daemon.
type Client struct {
	peer  comm.Peer
	stats *telemetry.ReadStats

	mu    sync.Mutex
	tiers []string // the tier names read replies carried (a daemon has a handful)
}

// tierName returns view as a string that outlives its reply, shared by
// every read its tier serves.
func (c *Client) tierName(view string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.Index(c.tiers, view); i >= 0 {
		return c.tiers[i]
	}
	t := strings.Clone(view)
	c.tiers = append(c.tiers, t)
	return t
}

// Dial connects to a daemon at addr.
func Dial(addr string) (*Client, error) {
	peer, err := comm.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	return &Client{peer: peer, stats: telemetry.NewReadStats()}, nil
}

// NewClient wraps an existing peer (tests use the in-process fabric).
func NewClient(peer comm.Peer) *Client {
	return &Client{peer: peer, stats: telemetry.NewReadStats()}
}

// Stats returns the client-side I/O statistics.
func (c *Client) Stats() *telemetry.ReadStats { return c.stats }

// Close releases the connection.
func (c *Client) Close() error { return c.peer.Close() }

// Ping probes the daemon's liveness.
func (c *Client) Ping() bool { return comm.Ping(c.peer, []byte("hfetch")) }

// call sends msg with req gob-encoded as its head and decodes the reply
// into resp; either may be nil.
func (c *Client) call(msg string, req, resp any) error {
	var head []byte
	if req != nil {
		var err error
		if head, err = enc(req); err != nil {
			return err
		}
	}
	raw, err := c.peer.Request(msg, head)
	if err != nil || resp == nil {
		return err
	}
	return dec(raw, resp)
}

// ServerStats queries the daemon's counters.
func (c *Client) ServerStats() (out StatsReply, err error) {
	err = c.call(MsgStats, nil, &out)
	return out, err
}

// Metrics queries the daemon's full telemetry snapshot. The snapshot is
// empty (no series) when the daemon runs with telemetry disabled.
func (c *Client) Metrics() (out telemetry.Snapshot, err error) {
	err = c.call(MsgMetrics, nil, &out)
	return out, err
}

// RenderTrace renders the server's lifecycle export: Chrome trace_event
// JSON (csv=false) or the access-record CSV (csv=true). Both render to
// empty-but-valid documents when lifecycle tracing is disabled.
func RenderTrace(srv *server.Server, csv bool) ([]byte, error) {
	lc := srv.Telemetry().Lifecycle()
	var buf bytes.Buffer
	if csv {
		var samples []telemetry.AccessSample
		if lc != nil {
			samples = lc.AccessLog().Samples()
		}
		if err := telemetry.WriteAccessCSV(&buf, samples); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	var recs []telemetry.TraceRecord
	if lc != nil {
		recs = lc.Export()
	}
	if err := telemetry.WriteTraceJSON(&buf, srv.Node(), recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Trace fetches the daemon's lifecycle trace export: Perfetto-loadable
// trace_event JSON, or the access-record CSV when csv is set.
func (c *Client) Trace(csv bool) ([]byte, error) {
	var out traceReply
	err := c.call(MsgTrace, traceReq{CSV: csv}, &out)
	return out.Data, err
}

// TraceRecords fetches the daemon's raw lifecycle records and its node
// name, for fleet-merged exports (telemetry.WriteFleetTraceJSON).
func (c *Client) TraceRecords() (node string, recs []telemetry.TraceRecord, err error) {
	var out traceRecsReply
	err = c.call(MsgTraceRecs, nil, &out)
	return out.Node, out.Recs, err
}

// Tiers queries the daemon's tier occupancy.
func (c *Client) Tiers() (out []TierInfo, err error) {
	err = c.call(MsgTiers, nil, &out)
	return out, err
}

// File is a remote open file.
type File struct {
	c    *Client
	name string
	size int64
}

// Open opens name for reading and begins its prefetching epoch.
func (c *Client) Open(name string) (*File, error) {
	var resp openResp
	if err := c.call(MsgOpen, openReq{File: name}, &resp); err != nil {
		return nil, err
	}
	return &File{c: c, name: name, size: resp.Size}, nil
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the file size at open time.
func (f *File) Size() int64 { return f.size }

// ReadAt reads len(p) bytes at off through the daemon.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	n, _, err := f.ReadAtTier(p, off)
	return n, err
}

// ReadAtTier is ReadAt plus the name of the tier that served the bytes
// ("" when they came from the PFS).
func (f *File) ReadAtTier(p []byte, off int64) (int, string, error) {
	hb := comm.NewHeadBuf()
	defer hb.Release()
	hb.B = appendReadReq(hb.B, readReq{File: f.name, Off: off, Len: int64(len(p))})
	start := time.Now()
	rep, err := comm.Call(f.c.peer, MsgRead, hb.B)
	if err != nil {
		return 0, "", err
	}
	defer rep.Release()
	tier, err := parseReadResp(rep.Head)
	if err != nil {
		return 0, "", err
	}
	n := copy(p, rep.Body)
	if tier = f.c.tierName(tier); tier != "" {
		f.c.stats.Hit(tier, int64(n))
	} else {
		f.c.stats.Miss(int64(n))
	}
	f.c.stats.ObserveRead(time.Since(start))
	return n, tier, nil
}

// WriteAt emulates an update (invalidating prefetched data).
func (f *File) WriteAt(off, ln int64) error {
	return f.c.call(MsgWrite, writeReq{File: f.name, Off: off, Len: ln}, nil)
}

// Close ends this reader's epoch.
func (f *File) Close() error {
	return f.c.call(MsgClose, closeReq{File: f.name}, nil)
}

// CreateFile registers a synthetic file on the daemon's PFS (testing and
// demo convenience; production deployments would point HFetch at real
// data).
const MsgCreate = "ctl.create"

type createReq struct {
	File string
	Size int64
}

// ServeAdmin registers administrative handlers (file creation).
func ServeAdmin(mux *comm.Mux, fs *pfs.FS) {
	serveGob(mux, MsgCreate, func(req createReq) (any, error) { return nil, fs.Create(req.File, req.Size) })
}

// CreateFile asks the daemon to register a synthetic file.
func (c *Client) CreateFile(name string, size int64) error {
	return c.call(MsgCreate, createReq{File: name, Size: size}, nil)
}

// MsgNodes is the cluster membership query (hfetchctl nodes).
const MsgNodes = "ctl.nodes"

// NodeInfo is one member's row in the ctl.nodes reply. The package
// deliberately does not import internal/cluster: the daemon glues its
// cluster view into this wire struct, and non-clustered daemons answer
// with their single self row.
type NodeInfo struct {
	Name string
	Addr string
	// Ops is the member's operator-facing (agent/ctl) address, gossiped
	// through the membership so fleet fan-out (hfetchctl -fleet) needs no
	// static configuration ("" when unknown).
	Ops string
	// State is "alive", "suspect" or "dead" ("self" fields report zero
	// heartbeat age).
	State string
	// HeartbeatAgeNanos is how long ago the daemon heard the member.
	HeartbeatAgeNanos int64
	// Keys is the member's self-reported hashmap key count.
	Keys int64
	// FetchP99Nanos is the daemon's observed p99 cross-node fetch
	// latency to the member (0 = no fetches yet).
	FetchP99Nanos int64
}

type nodesReply struct{ Nodes []NodeInfo }

// ServeNodes registers the membership query; fn snapshots the daemon's
// current view (it must be safe for concurrent use).
func ServeNodes(mux *comm.Mux, fn func() []NodeInfo) {
	mux.Register(MsgNodes, func([]byte) ([]byte, error) {
		return enc(nodesReply{Nodes: fn()})
	})
}

// Nodes queries the daemon's cluster membership view.
func (c *Client) Nodes() ([]NodeInfo, error) {
	var out nodesReply
	err := c.call(MsgNodes, nil, &out)
	return out.Nodes, err
}
