// Package comm is the node-to-node communicator of HFetch. The paper
// uses Mellanox libibverbs (RDMA/RoCE) for both metadata calls (segment
// locations, mappings) and data movement (fetching segments from remote
// tiers). This implementation provides the same request/response and
// one-way messaging over two interchangeable transports:
//
//   - TCP with one fixed binary frame and request multiplexing over a
//     persistent connection (the cross-process deployment), and
//   - an in-process loopback (the emulated-cluster deployment used by
//     the experiment harness, where "nodes" share an address space).
//
// # The frame
//
// Every message — request, response, one-way — is one frame
// (big-endian; frame.go is the only code that knows the layout):
//
//	off  size  field
//	  0     2  magic "HF"
//	  2     1  version (WireVersion; any other value is refused)
//	  3     1  kind: 0 request, 1 response, 2 one-way
//	  4     8  request id
//	 12     2  message-type length (≤ 255)
//	 14     2  error length (≤ 4096, senders truncate)
//	 16     4  head length (≤ MaxHead, 4 MiB)
//	 20     4  body length (≤ MaxBody, 8 MiB: the slab's largest class)
//	 24     …  message type | error | head | body
//
// The reader checks magic, version and every length before it
// allocates; a bad header closes the connection, and so does a failed
// write, so pending requests fail at once instead of waiting out their
// timeout. Frame bytes are counted at the framer
// (hfetch_comm_bytes_{in,out}_total).
//
// # Head and body
//
// The head is the message's encoding, owned by the package that owns
// the message: srv.read (internal/core/server), the dhm RPC and its
// tagged values (internal/dhm, *auditor.Rec registering its own pair),
// cluster.update / cluster.inval / cluster.hb (internal/cluster) are
// hand-written binary codecs; ctl.* and the agent protocol still put a
// gob encoding there. comm never looks inside a head; field.go only
// offers the length-prefixed field helpers the codecs share.
//
// The body is bulk bytes passed by reference. A serving handler
// registered with Mux.RegisterReply returns a Reply whose Body points
// at pinned tier bytes and whose Owner is the pin (no closure); the
// transport writes header, head and body with one vectored write and
// releases the Owner once the frame is on the wire. The receiving side
// reads the body from the socket into a slab buffer once and hands it to
// the caller of Call by reference; the caller's Release returns it to
// the slab. The in-process transport keeps the same contract — the body
// is the handler's own slice and Release drops the handler's pin — so
// the emulated cluster exercises the same ownership rules as TCP.
//
// Handler, Mux.Register and Peer.Request are the body-less case of the
// same call: a plain handler is a reply handler with no body, and a
// plain Request is a Call whose reply is released on the spot and whose
// head — always a GC-managed, caller-owned slice — is returned.
//
// A TCP call allocates nothing but its caller's head: a client reuses a
// call record (channel, timer) per outstanding request, pooled only
// empty; a server hands each frame to an idle worker of its connection,
// starting one only when all are busy, and retires a worker idle 1 s.
package comm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"hfetch/internal/tiers"
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("comm: transport closed")

// ErrTimeout is returned by Request when the peer's request deadline
// expires before a response arrives. The request may still execute on
// the remote node; callers must treat timed-out operations as
// indeterminate.
var ErrTimeout = errors.New("comm: request timed out")

// Handler processes one message and returns a response payload.
// One-way notifications ignore the returned payload. The payload is the
// transport's buffer: it is valid until the response has been sent (so
// a handler may return it, as the ping handler does) and must be copied
// if kept longer.
type Handler func(payload []byte) ([]byte, error)

// Reply is a response in the general call shape: a head plus bulk bytes
// by reference. Head is an ordinary GC-managed slice, never pooled: it
// stays valid after Release. Body is borrowed: whoever holds the Reply
// calls Release exactly once when done with it, and must not touch Body
// afterwards.
type Reply struct {
	Head  []byte
	Body  []byte
	Owner Owner // what Body goes back to on Release: the serving side's pinned *tiers.Buf
	slab  bool  // Body is the slab buffer the TCP transport received into
}

// Owner holds a reply's borrowed bytes until the reply is released.
type Owner interface{ Release() }

// Release ends the holder's use of the reply. Safe on the zero Reply.
func (r Reply) Release() {
	if r.Owner != nil {
		r.Owner.Release()
	} else if r.slab {
		tiers.SlabPut(r.Body)
	}
}

// HeadBuf is a pooled buffer a request head is built in.
type HeadBuf struct{ B []byte }

var headBufs = sync.Pool{New: func() any { return &HeadBuf{B: make([]byte, 0, 256)} }}

// NewHeadBuf takes an empty head buffer from the pool.
func NewHeadBuf() *HeadBuf { return headBufs.Get().(*HeadBuf) }

// Release puts h back once the response has been read; B is not touched after.
func (h *HeadBuf) Release() {
	h.B = h.B[:0]
	headBufs.Put(h)
}

// ReplyHandler is a Handler that may answer with a body by reference.
// The transport releases the Reply once the response is on the wire
// (or, in process, the caller does).
type ReplyHandler func(head []byte) (Reply, error)

// Mux routes incoming messages to handlers by type.
type Mux struct {
	mu       sync.RWMutex
	handlers map[string]ReplyHandler
}

// NewMux returns an empty handler table.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]ReplyHandler)}
}

// Register installs h for message type t, replacing any previous handler.
func (m *Mux) Register(t string, h Handler) {
	m.RegisterReply(t, func(head []byte) (Reply, error) {
		out, err := h(head)
		return Reply{Head: out}, err
	})
}

// RegisterReply installs a body-carrying handler for message type t,
// replacing any previous handler.
func (m *Mux) RegisterReply(t string, h ReplyHandler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[t] = h
}

// lookup finds the handler for a message type as it sits in a frame.
func (m *Mux) lookup(t []byte) ReplyHandler {
	m.mu.RLock()
	h := m.handlers[string(t)]
	m.mu.RUnlock()
	return h
}

// Serve invokes the handler for type t in the general call shape; the
// caller owns the Reply and must Release it.
func (m *Mux) Serve(t string, head []byte) (Reply, error) {
	m.mu.RLock()
	h := m.handlers[t]
	m.mu.RUnlock()
	if h == nil {
		return Reply{}, errNoHandler(t)
	}
	return h(head)
}

// Dispatch invokes the handler for type t and returns its head; a body,
// if the handler sent one, is released unseen.
func (m *Mux) Dispatch(t string, payload []byte) ([]byte, error) {
	return HeadOnly(m.Serve(t, payload))
}

func errNoHandler(t string) error {
	return fmt.Errorf("comm: no handler for message type %q", t)
}

// HeadOnly folds a general reply into the plain call shape, releasing it.
func HeadOnly(r Reply, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	r.Release()
	return r.Head, nil
}

// Peer is a connection to one remote node.
type Peer interface {
	// Request sends a message and waits for the response.
	Request(msgType string, payload []byte) ([]byte, error)
	// Notify sends a one-way message.
	Notify(msgType string, payload []byte) error
	// Close releases the connection.
	Close() error
}

// Caller is the body-carrying call shape. Every transport and wrapper
// in the tree implements it next to Peer; the returned Reply must be
// released.
type Caller interface {
	Call(msgType string, head []byte) (Reply, error)
}

// Call issues the general call on p. A Peer that is not a Caller (a
// test fake) is served through Request, which can carry no body.
func Call(p Peer, msgType string, head []byte) (Reply, error) {
	if c, ok := p.(Caller); ok {
		return c.Call(msgType, head)
	}
	out, err := p.Request(msgType, head)
	return Reply{Head: out}, err
}

// remoteError wraps an error string returned by a remote handler.
type remoteError struct{ msg string }

func (e remoteError) Error() string { return "comm: remote: " + e.msg }

// IsRemote reports whether err originated in a remote handler.
func IsRemote(err error) bool {
	var re remoteError
	return errors.As(err, &re)
}

// MsgPing is a liveness probe every Mux answers implicitly via
// RegisterPing; servers that want liveness checks call it once.
const MsgPing = "comm.ping"

// RegisterPing installs the standard liveness handler: it echoes the
// payload, so callers can verify round-trip integrity and measure RTT.
func (m *Mux) RegisterPing() {
	m.Register(MsgPing, func(p []byte) ([]byte, error) { return p, nil })
}

// Ping round-trips a probe through peer and reports whether the echo
// matched.
func Ping(p Peer, payload []byte) bool {
	resp, err := p.Request(MsgPing, payload)
	return err == nil && bytes.Equal(resp, payload)
}
