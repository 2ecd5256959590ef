package comm

import "sync"

// DefaultHealthThreshold is the consecutive-failure count after which a
// peer is reported unhealthy.
const DefaultHealthThreshold = 3

// Health tracks per-peer request outcomes so higher layers (the cluster
// membership) can mark a slow or dead peer suspect instead of waiting on
// it. It is transport-agnostic: callers observe every request they issue.
type Health struct {
	threshold int
	stats     *Stats // optional; counts failed observations

	mu    sync.Mutex
	peers map[string]int // consecutive failures since the last success
}

// SetStats attaches transport instrumentation: every failed observation
// also bumps hfetch_comm_health_failures_total. Nil-safe; call before
// traffic.
func (h *Health) SetStats(st *Stats) {
	if h == nil {
		return
	}
	h.stats = st
}

// NewHealth returns a tracker that reports a peer unhealthy after
// threshold consecutive failures (<= 0 uses DefaultHealthThreshold).
func NewHealth(threshold int) *Health {
	if threshold <= 0 {
		threshold = DefaultHealthThreshold
	}
	return &Health{threshold: threshold, peers: make(map[string]int)}
}

// Observe records one request outcome for node. Nil-safe.
func (h *Health) Observe(node string, err error) {
	if h == nil {
		return
	}
	if err != nil {
		h.stats.HealthFailure()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		h.peers[node]++
	} else {
		h.peers[node] = 0
	}
}

// Healthy reports whether node is under the consecutive-failure
// threshold. Unknown peers are healthy (innocent until observed).
// Nil-safe: a nil tracker reports every peer healthy.
func (h *Health) Healthy(node string) bool {
	if h == nil {
		return true
	}
	return h.Consecutive(node) < h.threshold
}

// Consecutive returns node's current consecutive-failure count.
func (h *Health) Consecutive(node string) int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peers[node]
}

// Threshold returns the consecutive-failure count at which a peer is
// reported unhealthy. Nil-safe.
func (h *Health) Threshold() int {
	if h == nil {
		return DefaultHealthThreshold
	}
	return h.threshold
}

// Forget drops node's history (a departed member).
func (h *Health) Forget(node string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.peers, node)
}
