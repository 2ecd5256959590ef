package baselines

import (
	"hfetch/internal/core/agent"
	"hfetch/internal/core/server"
	"hfetch/internal/telemetry"
)

// HFetch adapts an HFetch server node to the System interface so the
// experiment harness can drive it alongside the comparators.
type HFetch struct {
	srv   *server.Server
	stats *telemetry.ReadStats
}

// NewHFetch wraps a started server; Stop tears the server down too.
func NewHFetch(srv *server.Server) *HFetch {
	return &HFetch{srv: srv, stats: telemetry.NewReadStats()}
}

// Name implements System.
func (h *HFetch) Name() string { return "hfetch" }

// Stats implements System.
func (h *HFetch) Stats() *telemetry.ReadStats { return h.stats }

// Stop implements System.
func (h *HFetch) Stop() { h.srv.Stop() }

// Server exposes the wrapped server.
func (h *HFetch) Server() *server.Server { return h.srv }

// Open implements System.
func (h *HFetch) Open(app, file string) (Handle, error) {
	a := agent.New(h.srv, h.srv.FS(), h.stats)
	return a.Open(file)
}
