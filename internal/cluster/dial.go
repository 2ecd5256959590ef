package cluster

import (
	"fmt"
	"sync"

	"hfetch/internal/comm"
)

// NamedDialer resolves member names to transport connections through
// the membership address book. It satisfies both dhm.Dialer and
// server.Dialer (same method set), so the hashmaps and the server data
// path share one self-healing dial plane: a peer returned here redials
// after transport errors and follows address changes across restarts,
// which is what keeps the dhm and server peer caches from pinning a
// connection to a node's previous life.
type NamedDialer struct {
	mem *Membership
}

// Dialer returns the node's name-resolving dialer.
func (n *Node) Dialer() *NamedDialer { return &NamedDialer{mem: n.mem} }

// Dial returns a lazy, self-healing peer for the named member. It never
// returns nil; resolution failures surface from Request/Notify, so a
// currently-unknown member becomes reachable as soon as membership
// learns its address.
func (d *NamedDialer) Dial(node string) comm.Peer {
	return &reconnPeer{mem: d.mem, name: node}
}

// reconnPeer is a comm.Peer addressed by member name. Each call
// resolves the name through membership (which caches the underlying
// connection); a transport error drops that cached connection so the
// next call redials. Dead or unknown members fail fast — the caller's
// fallback (PFS, skip) applies — instead of hanging on a dial.
type reconnPeer struct {
	mem  *Membership
	name string

	mu     sync.Mutex
	closed bool
}

func (r *reconnPeer) Request(msgType string, payload []byte) ([]byte, error) {
	return comm.HeadOnly(r.Call(msgType, payload))
}

// Call implements comm.Caller: the body-carrying call over the same
// resolve-and-heal path as Request.
func (r *reconnPeer) Call(msgType string, head []byte) (comm.Reply, error) {
	p, err := r.resolve()
	if err != nil {
		return comm.Reply{}, err
	}
	rep, err := comm.Call(p, msgType, head)
	if err != nil && !comm.IsRemote(err) {
		r.mem.DropPeer(r.name)
	}
	return rep, err
}

func (r *reconnPeer) Notify(msgType string, payload []byte) error {
	p, err := r.resolve()
	if err != nil {
		return err
	}
	if err := p.Notify(msgType, payload); err != nil && !comm.IsRemote(err) {
		r.mem.DropPeer(r.name)
		return err
	}
	return nil
}

// Close marks this handle closed. The underlying connection stays in
// the membership cache: other handles to the same member share it.
func (r *reconnPeer) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return nil
}

func (r *reconnPeer) resolve() (comm.Peer, error) {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return nil, comm.ErrClosed
	}
	if st, known := r.mem.StateOf(r.name); !known || st == StateDead {
		return nil, fmt.Errorf("cluster: member %q unreachable (state %v)", r.name, st)
	}
	return r.mem.Peer(r.name)
}
