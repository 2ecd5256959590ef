package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hfetch/internal/devsim"
)

// InprocNetwork is an in-process fabric connecting named nodes. Each node
// registers a Mux; Dial returns a Peer whose requests invoke the remote
// mux directly. An optional devsim.Device models fabric latency and
// bandwidth so emulated-cluster experiments still pay for node-to-node
// hops.
type InprocNetwork struct {
	dev *devsim.Device

	mu    sync.RWMutex
	nodes map[string]*Mux
}

// NewInprocNetwork creates a fabric; dev may be nil for a free fabric.
func NewInprocNetwork(dev *devsim.Device) *InprocNetwork {
	return &InprocNetwork{dev: dev, nodes: make(map[string]*Mux)}
}

// Join registers node name with its handler mux.
func (n *InprocNetwork) Join(name string, mux *Mux) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[name] = mux
}

// Leave removes a node from the fabric.
func (n *InprocNetwork) Leave(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, name)
}

// Nodes returns the names of joined nodes.
func (n *InprocNetwork) Nodes() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		out = append(out, name)
	}
	return out
}

// Dial returns a Peer speaking to node name. Dialing an unknown node
// succeeds; requests fail until the node joins (mirrors connecting to a
// booting server).
func (n *InprocNetwork) Dial(name string) Peer {
	return &inprocPeer{net: n, target: name}
}

type inprocPeer struct {
	net    *InprocNetwork
	target string
	closed atomic.Bool
}

func (p *inprocPeer) mux() (*Mux, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	p.net.mu.RLock()
	mux := p.net.nodes[p.target]
	p.net.mu.RUnlock()
	if mux == nil {
		return nil, fmt.Errorf("comm: inproc node %q not joined", p.target)
	}
	return mux, nil
}

func (p *inprocPeer) Request(msgType string, payload []byte) ([]byte, error) {
	return HeadOnly(p.Call(msgType, payload))
}

// Call invokes the remote handler directly. The Reply is the handler's
// own: its Body is passed by reference and the caller's Release drops
// the handler's pin, the same ownership rules the TCP transport keeps.
func (p *inprocPeer) Call(msgType string, head []byte) (Reply, error) {
	mux, err := p.mux()
	if err != nil {
		return Reply{}, err
	}
	if p.net.dev != nil {
		p.net.dev.Access(int64(len(head)))
	}
	rep, err := mux.Serve(msgType, head)
	if err != nil {
		rep.Release()
		return Reply{}, remoteError{msg: err.Error()}
	}
	if n := len(rep.Head) + len(rep.Body); p.net.dev != nil && n > 0 {
		p.net.dev.Access(int64(n))
	}
	return rep, nil
}

func (p *inprocPeer) Notify(msgType string, payload []byte) error {
	mux, err := p.mux()
	if err != nil {
		return err
	}
	if p.net.dev != nil {
		p.net.dev.Access(int64(len(payload)))
	}
	go mux.Dispatch(msgType, payload) //nolint:errcheck // one-way, errors dropped by design
	return nil
}

func (p *inprocPeer) Close() error {
	p.closed.Store(true)
	return nil
}
