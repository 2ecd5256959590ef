package comm

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/invariant"
)

// TCPServer serves a Mux over TCP. Each accepted connection carries a
// multiplexed stream of frames; responses are written back on the same
// connection tagged with the request ID.
type TCPServer struct {
	mux   *Mux
	ln    net.Listener
	stats atomic.Pointer[Stats]

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// SetStats attaches transport instrumentation: connections accepted
// after the call count their frame bytes into st. Safe to call at any
// time; a nil st disables counting for new connections.
func (s *TCPServer) SetStats(st *Stats) { s.stats.Store(st) }

// ListenTCP starts a server for mux on addr ("host:port", ":0" for an
// ephemeral port).
func ListenTCP(addr string, mux *Mux) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: listen %s: %w", addr, err)
	}
	s := &TCPServer{mux: mux, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	st := s.stats.Load()
	r := &frameReader{r: conn, st: st, slabHead: true}
	w := &frameWriter{w: conn, st: st}
	// Idle workers take frames off jobs; one starts when all are busy.
	jobs := make(chan job)
	var workers sync.WaitGroup
	defer func() {
		close(jobs)
		workers.Wait()
	}()
	for {
		f, err := r.read()
		if err != nil {
			// A peer on another wire version gets the refusal as a
			// response in this version, which its own reader refuses in
			// turn: both ends report the mismatch, not a bare EOF.
			var ve *versionError
			if errors.As(err, &ve) {
				w.write(kindResponse, ve.id, "", err.Error(), nil, nil) //nolint:errcheck // best effort, the conn closes next
			}
			return // io.EOF, broken conn, or a frame this node refuses
		}
		if f.kind == kindResponse {
			f.recycle()
			return // a client never sends responses: not our protocol
		}
		// The handler is looked up here: f.typ is the reader's scratch.
		j := job{f: f, h: s.mux.lookup(f.typ)}
		if j.h == nil {
			err := errNoHandler(string(f.typ))
			j.h = func([]byte) (Reply, error) { return Reply{}, err }
		}
		select {
		case jobs <- j:
		default:
			workers.Add(1)
			go serveJobs(conn, w, j, jobs, &workers)
		}
	}
}

// job is one received request and the handler that serves it.
type job struct {
	f frame
	h ReplyHandler
}

// serveIdle is how long a connection's idle worker waits before it exits.
var serveIdle = time.Second

// serveJobs is one connection worker: it serves j, then what the
// connection's reader hands it, until it idles out or the connection ends.
func serveJobs(conn net.Conn, w *frameWriter, j job, jobs <-chan job, wg *sync.WaitGroup) {
	defer wg.Done()
	serveFrame(conn, w, j)
	idle := time.NewTimer(serveIdle)
	defer idle.Stop()
	for {
		select {
		case j, ok := <-jobs:
			if !ok {
				return
			}
			if !idle.Stop() {
				<-idle.C // fired: drained before the Reset (go 1.22 timer rules)
			}
			serveFrame(conn, w, j)
			idle.Reset(serveIdle)
		case <-idle.C:
			return
		}
	}
}

// serveFrame runs one request's handler and writes its response. The
// request's buffers are recycled only after the response is written: a
// handler may answer with (a slice of) its request.
func serveFrame(conn net.Conn, w *frameWriter, j job) {
	f := j.f
	defer f.recycle()
	rep, err := j.h(f.head)
	if f.kind == kindOneway {
		rep.Release()
		return
	}
	if err == nil {
		err = checkFrame("", rep.Head, rep.Body)
	}
	var werr error
	if err != nil {
		msg := err.Error()
		if msg == "" {
			msg = "error"
		}
		werr = w.write(kindResponse, f.id, "", msg, nil, nil)
	} else {
		werr = w.write(kindResponse, f.id, "", "", rep.Head, rep.Body)
	}
	rep.Release()
	if werr != nil {
		// Mid-frame failure: the stream is unusable. Closing makes the
		// client fail its pending requests now rather than at timeout.
		conn.Close()
	}
}

// Close stops accepting and tears down all connections.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// tcpPeer is a client connection with request multiplexing.
type tcpPeer struct {
	conn       net.Conn
	w          *frameWriter
	reqTimeout time.Duration
	stats      *Stats // nil when uninstrumented
	peerName   string // stats label (PeerOptions.PeerName or the addr)

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*callRec
	free    []*callRec // records of finished calls, each with its channel empty
	closed  bool
}

// result is what the read loop hands a waiting request: the response
// frame, or the error that ended the connection.
type result struct {
	f   frame
	err error
}

// callRec is one outstanding call's rendezvous, reused call after call:
// a channel for the read loop's one send and the request timer, made
// stopped. It is pooled only with its channel empty.
type callRec struct {
	ch    chan result
	timer *time.Timer
}

func newCallRec() *callRec {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &callRec{ch: make(chan result, 1), timer: t}
}

// PeerOptions tunes the failure behavior of a dialed TCP peer. The zero
// value reproduces the legacy semantics: one connect attempt with the
// default timeout, requests wait forever.
type PeerOptions struct {
	// DialTimeout bounds one TCP connect attempt (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds each Request round trip. Zero disables the
	// deadline (legacy behavior: a dead peer blocks the request until the
	// connection errors out, which for a hung-but-open socket is forever).
	RequestTimeout time.Duration
	// DialAttempts is the total number of connect attempts on transient
	// dial failure (default 1: no retry).
	DialAttempts int
	// DialBackoff is the base delay between connect attempts; each retry
	// doubles it, plus up to 50% random jitter so a cluster of restarting
	// nodes does not redial in lockstep (default 50ms).
	DialBackoff time.Duration
	// Stats, when non-nil, instruments the peer: dial latency and
	// retries, per-request round-trip latency and timeouts, and frame
	// bytes in/out counted at the framer.
	Stats *Stats
	// PeerName labels Stats series for this peer (default: the dialed
	// address).
	PeerName string
}

func (o PeerOptions) withDefaults() PeerOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.DialAttempts <= 0 {
		o.DialAttempts = 1
	}
	if o.DialBackoff <= 0 {
		o.DialBackoff = 50 * time.Millisecond
	}
	return o
}

// DialTCP connects to a TCPServer at addr with default options (bounded
// connect, unbounded requests).
func DialTCP(addr string) (Peer, error) {
	return DialTCPOpts(addr, PeerOptions{})
}

// DialTCPOpts connects to a TCPServer at addr, retrying transient dial
// failures with jittered exponential backoff per opts.
func DialTCPOpts(addr string, opts PeerOptions) (Peer, error) {
	opts = opts.withDefaults()
	if opts.PeerName == "" {
		opts.PeerName = addr
	}
	var conn net.Conn
	var err error
	backoff := opts.DialBackoff
	dialStart := time.Now()
	for attempt := 0; attempt < opts.DialAttempts; attempt++ {
		if attempt > 0 {
			opts.Stats.DialRetry()
			time.Sleep(backoff + time.Duration(rand.Int63n(int64(backoff)/2+1)))
			backoff *= 2
		}
		conn, err = net.DialTimeout("tcp", addr, opts.DialTimeout)
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("comm: dial %s: %w", addr, err)
	}
	opts.Stats.ObserveDial(opts.PeerName, time.Since(dialStart))
	p := &tcpPeer{
		conn:       conn,
		w:          &frameWriter{w: conn, st: opts.Stats},
		reqTimeout: opts.RequestTimeout,
		stats:      opts.Stats,
		peerName:   opts.PeerName,
		pending:    make(map[uint64]*callRec),
	}
	go p.readLoop()
	return p, nil
}

func (p *tcpPeer) readLoop() {
	r := &frameReader{r: p.conn, st: p.stats}
	for {
		f, err := r.read()
		if err == nil && f.kind != kindResponse {
			f.recycle()
			err = errBadFrame // a server only ever sends responses
		}
		if err != nil {
			p.conn.Close()
			p.mu.Lock()
			for id, c := range p.pending {
				c.ch <- result{err: err}
				delete(p.pending, id)
			}
			p.closed = true
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		c := p.pending[f.id]
		delete(p.pending, f.id)
		p.mu.Unlock()
		if c == nil {
			// The request timed out (or never existed): the late
			// response's body goes back to the slab unread.
			f.recycle()
			continue
		}
		c.ch <- result{f: f}
	}
}

func (p *tcpPeer) Request(msgType string, payload []byte) ([]byte, error) {
	return HeadOnly(p.Call(msgType, payload))
}

func (p *tcpPeer) Call(msgType string, head []byte) (Reply, error) {
	if p.stats == nil {
		return p.call(msgType, head)
	}
	start := time.Now()
	rep, err := p.call(msgType, head)
	p.stats.ObserveRequest(p.peerName, time.Since(start), err)
	return rep, err
}

func (p *tcpPeer) call(msgType string, head []byte) (Reply, error) {
	if err := checkFrame(msgType, head, nil); err != nil {
		return Reply{}, err
	}
	id := p.nextID.Add(1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return Reply{}, ErrClosed
	}
	var c *callRec
	if n := len(p.free); n > 0 {
		c, p.free = p.free[n-1], p.free[:n-1]
	} else {
		c = newCallRec()
	}
	p.pending[id] = c
	p.mu.Unlock()
	defer p.release(c)

	if err := p.w.write(kindRequest, id, msgType, "", head, nil); err != nil {
		if !p.abandon(id) {
			// The read loop claimed the entry: its delivery is taken, so a
			// slab body does not leak and the record goes back empty.
			res := <-c.ch
			res.f.recycle()
		}
		p.conn.Close() // mid-frame: fail the other pending requests now
		return Reply{}, fmt.Errorf("comm: send: %w", err)
	}

	var res result
	if p.reqTimeout > 0 {
		// Under go.mod's go 1.22 timer rules a Reset needs the timer
		// stopped and drained: one stopped too late has fired into C.
		c.timer.Reset(p.reqTimeout)
		select {
		case res = <-c.ch:
			if !c.timer.Stop() {
				<-c.timer.C
			}
		case <-c.timer.C:
			if p.abandon(id) {
				// A late response finds no pending entry and is
				// recycled by the read loop.
				return Reply{}, fmt.Errorf("comm: %s after %v: %w", msgType, p.reqTimeout, ErrTimeout)
			}
			// The read loop claimed the entry first: its send is
			// already on the way, and the response (and its slab body)
			// must be taken, not leaked.
			res = <-c.ch
		}
	} else {
		res = <-c.ch
	}
	if res.err != nil {
		if res.err == io.EOF || errors.Is(res.err, net.ErrClosed) {
			return Reply{}, ErrClosed
		}
		return Reply{}, fmt.Errorf("comm: connection lost: %w", res.err)
	}
	f := res.f
	if f.errLen > 0 {
		f.recycle()
		return Reply{}, remoteError{msg: f.errMsg}
	}
	return Reply{Head: f.head, Body: f.body, slab: f.body != nil}, nil
}

// release pools a finished call's record for the next call.
func (p *tcpPeer) release(c *callRec) {
	invariant.Assert(len(c.ch) == 0, "comm: call record pooled with an undelivered result")
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// abandon withdraws a pending request; false means the read loop has
// already claimed it and will deliver.
func (p *tcpPeer) abandon(id uint64) bool {
	p.mu.Lock()
	_, waiting := p.pending[id]
	delete(p.pending, id)
	p.mu.Unlock()
	return waiting
}

func (p *tcpPeer) Notify(msgType string, payload []byte) error {
	if err := checkFrame(msgType, payload, nil); err != nil {
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.mu.Unlock()
	if err := p.w.write(kindOneway, 0, msgType, "", payload, nil); err != nil {
		p.conn.Close()
		return fmt.Errorf("comm: notify: %w", err)
	}
	return nil
}

func (p *tcpPeer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	return p.conn.Close()
}
