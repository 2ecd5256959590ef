package remote

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	"hfetch/internal/core/server"
)

// NewHTTPHandler exposes a read-only status API for an HFetch server,
// served by cmd/hfetchd next to the agent protocol:
//
//	GET /healthz      -> 200 "ok"
//	GET /stats        -> JSON StatsReply
//	GET /tiers        -> JSON []TierInfo
//	GET /metrics      -> Prometheus text exposition from the node's
//	                     telemetry registry (histograms included); when
//	                     the daemon runs without telemetry, a coarse
//	                     counter-only fallback rendered from StatsReply
//	GET /debug/trace  -> Chrome trace_event JSON of lifecycle traces
//	                     (load in Perfetto / chrome://tracing); ?csv=1
//	                     switches to the access-record CSV
//	GET /debug/pprof/ -> net/http/pprof profiles
func NewHTTPHandler(srv *server.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, statsReply(srv))
	})
	mux.HandleFunc("GET /tiers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, tierInfos(srv))
	})
	if reg := srv.Telemetry(); reg != nil {
		mux.Handle("GET /metrics", reg.Handler())
	} else {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			writeLegacyMetrics(w, srv)
		})
	}
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		csv := r.URL.Query().Get("csv") == "1"
		data, err := RenderTrace(srv, csv)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if csv {
			w.Header().Set("Content-Type", "text/csv")
		} else {
			w.Header().Set("Content-Type", "application/json")
		}
		w.Write(data) //nolint:errcheck // best-effort HTTP body
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// writeLegacyMetrics is the pre-telemetry coarse exposition: plain
// counters from StatsReply and tier occupancy, no histograms.
func writeLegacyMetrics(w http.ResponseWriter, srv *server.Server) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	st := statsReply(srv)
	emit := func(name string, v int64, labels string) {
		fmt.Fprintf(w, "hfetch_%s%s %d\n", name, labels, v)
	}
	emit("events_total", st.Events, "")
	emit("reads_total", st.Reads, "")
	emit("invalidations_total", st.Invalidations, "")
	emit("segments_seen", st.SegmentsSeen, "")
	emit("engine_runs_total", st.EngineRuns, "")
	emit("placements_total", st.Placements, "")
	emit("promotions_total", st.Promotions, "")
	emit("demotions_total", st.Demotions, "")
	emit("evictions_total", st.Evictions, "")
	emit("remote_reads_total", st.RemoteReads, "")
	emit("remote_serves_total", st.RemoteServes, "")
	for _, ti := range tierInfos(srv) {
		l := fmt.Sprintf("{tier=%q}", ti.Name)
		emit("tier_capacity_bytes", ti.Capacity, l)
		emit("tier_used_bytes", ti.Used, l)
		emit("tier_segments", int64(ti.Segments), l)
	}
}

func statsReply(srv *server.Server) StatsReply {
	ac := srv.Auditor().Counters()
	ec := srv.Engine().Counters()
	rr, rs := srv.RemoteStats()
	return StatsReply{
		Node:          srv.Node(),
		Events:        ac.Events,
		Reads:         ac.Reads,
		Invalidations: ac.Invalidations,
		SegmentsSeen:  ac.SegmentsSeen,
		EngineRuns:    ec.Runs,
		Placements:    ec.Placements,
		Promotions:    ec.Promotions,
		Demotions:     ec.Demotions,
		Evictions:     ec.Evictions,
		RemoteReads:   rr,
		RemoteServes:  rs,
		IO:            srv.IOStats().Snapshot(),
	}
}

func tierInfos(srv *server.Server) []TierInfo {
	var out []TierInfo
	for _, st := range srv.Hierarchy().Stores() {
		out = append(out, TierInfo{
			Name: st.Name(), Capacity: st.Capacity(), Used: st.Used(), Segments: st.Len(),
		})
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
