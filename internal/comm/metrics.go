package comm

import (
	"errors"
	"time"

	"hfetch/internal/telemetry"
)

// Stats is the transport instrumentation for package comm: per-peer
// dial and request latency histograms, frame bytes in/out, and
// timeout/retry counters, exported as the hfetch_comm_*
// families. All methods are nil-safe — a nil *Stats (telemetry
// disabled) costs one branch per call, and the transports take a nil
// *Stats by default so existing callers pay nothing.
type Stats struct {
	dial     *telemetry.HistVec // hfetch_comm_dial_nanos{peer}
	request  *telemetry.HistVec // hfetch_comm_request_nanos{peer}
	bytesIn  *telemetry.Counter
	bytesOut *telemetry.Counter
	timeouts *telemetry.Counter
	retries  *telemetry.Counter
}

// NewStats registers the hfetch_comm_* metric families on reg and
// returns the instrumentation handle. A nil registry returns nil (the
// disabled state).
func NewStats(reg *telemetry.Registry) *Stats {
	if reg == nil {
		return nil
	}
	return &Stats{
		dial:     reg.HistVec("hfetch_comm_dial_nanos", "TCP peer connect latency by peer in nanoseconds", "peer"),
		request:  reg.HistVec("hfetch_comm_request_nanos", "comm request round-trip latency by peer in nanoseconds", "peer"),
		bytesIn:  reg.Counter("hfetch_comm_bytes_in_total", "bytes read from comm transport connections"),
		bytesOut: reg.Counter("hfetch_comm_bytes_out_total", "bytes written to comm transport connections"),
		timeouts: reg.Counter("hfetch_comm_timeouts_total", "comm requests abandoned at the request deadline"),
		retries:  reg.Counter("hfetch_comm_dial_retries_total", "TCP connect retries after transient dial failures"),
	}
}

// ObserveDial records one successful connect to peer. Nil-safe.
func (s *Stats) ObserveDial(peer string, d time.Duration) {
	if s == nil {
		return
	}
	s.dial.With(peer).Observe(int64(d))
}

// ObserveRequest records one request round trip against peer: latency
// on success, the timeout counter when the deadline expired. Nil-safe.
func (s *Stats) ObserveRequest(peer string, d time.Duration, err error) {
	if s == nil {
		return
	}
	if err == nil {
		s.request.With(peer).Observe(int64(d))
		return
	}
	if errors.Is(err, ErrTimeout) {
		s.timeouts.Inc()
	}
}

// DialRetry counts one connect retry. Nil-safe.
func (s *Stats) DialRetry() {
	if s == nil {
		return
	}
	s.retries.Inc()
}

// AddBytesIn counts received transport bytes. Nil-safe.
func (s *Stats) AddBytesIn(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.bytesIn.Add(n)
}

// AddBytesOut counts sent transport bytes. Nil-safe.
func (s *Stats) AddBytesOut(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.bytesOut.Add(n)
}

// InstrumentPeer wraps p so every Request and Call is timed into st
// under the given peer label (Notify passes through — one-way sends
// have no round trip to time). A nil st returns p unchanged, so the wrapper
// costs nothing when telemetry is off.
func InstrumentPeer(p Peer, peer string, st *Stats) Peer {
	if st == nil || p == nil {
		return p
	}
	return &statsPeer{Peer: p, name: peer, st: st}
}

type statsPeer struct {
	Peer
	name string
	st   *Stats
}

func (p *statsPeer) Request(msgType string, payload []byte) ([]byte, error) {
	return HeadOnly(p.Call(msgType, payload))
}

func (p *statsPeer) Call(msgType string, head []byte) (Reply, error) {
	start := time.Now()
	rep, err := Call(p.Peer, msgType, head)
	p.st.ObserveRequest(p.name, time.Since(start), err)
	return rep, err
}
