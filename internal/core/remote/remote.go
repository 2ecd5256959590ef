// Package remote implements the wire protocol between HFetch agents and
// a standalone HFetch server daemon (cmd/hfetchd). In the emulated
// cluster, agents call the server in-process; across processes the same
// agent operations — open (start epoch), read (prefetched-or-PFS), write
// (invalidate), close (end epoch) — travel over the node-to-node
// communicator as gob-encoded request/response messages.
package remote

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/seg"
	"hfetch/internal/core/server"
	"hfetch/internal/events"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
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

type readReq struct {
	File string
	Off  int64
	Len  int64
}

type readResp struct {
	Data []byte
	Tier string // tier that served it; empty = PFS (miss)
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

// Serve registers the agent protocol handlers for srv on mux.
func Serve(mux *comm.Mux, srv *server.Server) {
	mux.Register(MsgOpen, func(raw []byte) ([]byte, error) {
		var req openReq
		if err := dec(raw, &req); err != nil {
			return nil, err
		}
		fi, err := srv.FS().Stat(req.File)
		if err != nil {
			return nil, err
		}
		srv.StartEpoch(req.File, fi.Size)
		return enc(openResp{Size: fi.Size})
	})
	mux.Register(MsgRead, func(raw []byte) ([]byte, error) {
		var req readReq
		if err := dec(raw, &req); err != nil {
			return nil, err
		}
		data, tier, err := serveRead(srv, req)
		if err != nil {
			return nil, err
		}
		return enc(readResp{Data: data, Tier: tier})
	})
	mux.Register(MsgWrite, func(raw []byte) ([]byte, error) {
		var req writeReq
		if err := dec(raw, &req); err != nil {
			return nil, err
		}
		if _, err := srv.FS().Write(req.File, req.Off, req.Len); err != nil {
			return nil, err
		}
		srv.PostEvent(events.Event{Op: events.OpWrite, File: req.File, Offset: req.Off, Length: req.Len})
		return nil, nil
	})
	mux.Register(MsgClose, func(raw []byte) ([]byte, error) {
		var req closeReq
		if err := dec(raw, &req); err != nil {
			return nil, err
		}
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
	mux.Register(MsgTrace, func(raw []byte) ([]byte, error) {
		var req traceReq
		if len(raw) > 0 {
			if err := dec(raw, &req); err != nil {
				return nil, err
			}
		}
		data, err := RenderTrace(srv, req.CSV)
		if err != nil {
			return nil, err
		}
		return enc(traceReply{Data: data})
	})
	mux.Register(MsgTraceRecs, func(raw []byte) ([]byte, error) {
		reply := traceRecsReply{Node: srv.Node()}
		if lc := srv.Telemetry().Lifecycle(); lc != nil {
			reply.Recs = lc.Export()
		}
		return enc(reply)
	})
	mux.Register(MsgTiers, func(raw []byte) ([]byte, error) {
		var out []TierInfo
		for _, st := range srv.Hierarchy().Stores() {
			out = append(out, TierInfo{
				Name: st.Name(), Capacity: st.Capacity(), Used: st.Used(), Segments: st.Len(),
			})
		}
		return enc(out)
	})
}

// serveRead performs the server-side read path: prefetched segments from
// their tiers, the rest from the PFS, with the access event posted.
func serveRead(srv *server.Server, req readReq) ([]byte, string, error) {
	if req.Len <= 0 || req.Off < 0 {
		return nil, "", fmt.Errorf("remote: bad read [%d,+%d)", req.Off, req.Len)
	}
	fi, err := srv.FS().Stat(req.File)
	if err != nil {
		return nil, "", err
	}
	want := req.Len
	if req.Off >= fi.Size {
		return nil, "", nil
	}
	if req.Off+want > fi.Size {
		want = fi.Size - req.Off
	}
	out := make([]byte, want)
	segr := srv.Segmenter()
	tier := ""
	allHit := true
	n := int64(0)
	for n < want {
		cur := req.Off + n
		id := seg.ID{File: req.File, Index: segr.IndexOf(cur)}
		segOff := cur - id.Index*segr.Size()
		chunk := segr.RangeOf(id, fi.Size).End() - cur
		if chunk > want-n {
			chunk = want - n
		}
		if chunk <= 0 {
			break
		}
		if got, t, ok := srv.ReadPrefetched(id, segOff, out[n:n+chunk]); ok && int64(got) == chunk {
			tier = t
			n += chunk
			continue
		}
		allHit = false
		got, _, err := srv.FS().ReadAt(req.File, cur, out[n:n+chunk])
		if err != nil {
			return nil, "", err
		}
		n += int64(got)
		if int64(got) < chunk {
			break
		}
	}
	srv.PostEvent(events.Event{Op: events.OpRead, File: req.File, Offset: req.Off, Length: n})
	if !allHit {
		tier = ""
	}
	return out[:n], tier, nil
}

// Client is a remote HFetch agent speaking to an hfetchd daemon.
type Client struct {
	peer  comm.Peer
	stats *telemetry.ReadStats
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

// Stats queries the daemon's counters.
func (c *Client) ServerStats() (StatsReply, error) {
	raw, err := c.peer.Request(MsgStats, nil)
	if err != nil {
		return StatsReply{}, err
	}
	var out StatsReply
	err = dec(raw, &out)
	return out, err
}

// Metrics queries the daemon's full telemetry snapshot. The snapshot is
// empty (no series) when the daemon runs with telemetry disabled.
func (c *Client) Metrics() (telemetry.Snapshot, error) {
	raw, err := c.peer.Request(MsgMetrics, nil)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	var out telemetry.Snapshot
	err = dec(raw, &out)
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
	req, err := enc(traceReq{CSV: csv})
	if err != nil {
		return nil, err
	}
	raw, err := c.peer.Request(MsgTrace, req)
	if err != nil {
		return nil, err
	}
	var out traceReply
	err = dec(raw, &out)
	return out.Data, err
}

// TraceRecords fetches the daemon's raw lifecycle records and its node
// name, for fleet-merged exports (telemetry.WriteFleetTraceJSON).
func (c *Client) TraceRecords() (node string, recs []telemetry.TraceRecord, err error) {
	raw, err := c.peer.Request(MsgTraceRecs, nil)
	if err != nil {
		return "", nil, err
	}
	var out traceRecsReply
	if err := dec(raw, &out); err != nil {
		return "", nil, err
	}
	return out.Node, out.Recs, nil
}

// Tiers queries the daemon's tier occupancy.
func (c *Client) Tiers() ([]TierInfo, error) {
	raw, err := c.peer.Request(MsgTiers, nil)
	if err != nil {
		return nil, err
	}
	var out []TierInfo
	err = dec(raw, &out)
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
	req, err := enc(openReq{File: name})
	if err != nil {
		return nil, err
	}
	raw, err := c.peer.Request(MsgOpen, req)
	if err != nil {
		return nil, err
	}
	var resp openResp
	if err := dec(raw, &resp); err != nil {
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
	req, err := enc(readReq{File: f.name, Off: off, Len: int64(len(p))})
	if err != nil {
		return 0, "", err
	}
	start := time.Now()
	raw, err := f.c.peer.Request(MsgRead, req)
	if err != nil {
		return 0, "", err
	}
	var resp readResp
	if err := dec(raw, &resp); err != nil {
		return 0, "", err
	}
	n := copy(p, resp.Data)
	if resp.Tier != "" {
		f.c.stats.Hit(resp.Tier, int64(n))
	} else {
		f.c.stats.Miss(int64(n))
	}
	f.c.stats.ObserveRead(time.Since(start))
	return n, resp.Tier, nil
}

// WriteAt emulates an update (invalidating prefetched data).
func (f *File) WriteAt(off, ln int64) error {
	req, err := enc(writeReq{File: f.name, Off: off, Len: ln})
	if err != nil {
		return err
	}
	_, err = f.c.peer.Request(MsgWrite, req)
	return err
}

// Close ends this reader's epoch.
func (f *File) Close() error {
	req, err := enc(closeReq{File: f.name})
	if err != nil {
		return err
	}
	_, err = f.c.peer.Request(MsgClose, req)
	return err
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
	mux.Register(MsgCreate, func(raw []byte) ([]byte, error) {
		var req createReq
		if err := dec(raw, &req); err != nil {
			return nil, err
		}
		return nil, fs.Create(req.File, req.Size)
	})
}

// CreateFile asks the daemon to register a synthetic file.
func (c *Client) CreateFile(name string, size int64) error {
	req, err := enc(createReq{File: name, Size: size})
	if err != nil {
		return err
	}
	_, err = c.peer.Request(MsgCreate, req)
	return err
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
	raw, err := c.peer.Request(MsgNodes, nil)
	if err != nil {
		return nil, err
	}
	var out nodesReply
	if err := dec(raw, &out); err != nil {
		return nil, err
	}
	return out.Nodes, nil
}
