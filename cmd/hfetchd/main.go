// Command hfetchd runs a standalone HFetch server node: the node
// hfetch.NewNode builds from the JSON configuration (tier hierarchy over
// the emulated PFS, hardware monitor, placement engine, stall watchdog
// and, with peer_listen, the cluster fabric), serving the agent protocol
// (open/read/write/close + admin/ctl) over TCP. When http_listen is
// configured it also serves the range-read gateway and the observability
// API: /metrics (Prometheus text), /healthz, /stats, /tiers,
// /debug/trace (Perfetto-loadable lifecycle traces), and /debug/pprof.
//
// Usage:
//
//	hfetchd [-config hfetch.json] [-listen addr] [-http-listen addr]
//	        [-node name] [-peer-listen addr] [-seeds addr,...]
//	        [-write-default path]
//
// Every other setting is a key of the JSON configuration.
//
// Agents connect with internal/core/remote.Dial (see examples/remote in
// the README) or via cmd/hfetchctl for inspection (see hfetchctl top and
// hfetchctl trace).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hfetch"
	"hfetch/internal/comm"
	"hfetch/internal/config"
	"hfetch/internal/core/remote"
	"hfetch/internal/gateway"
)

func main() {
	cfgPath := flag.String("config", "", "path to the JSON configuration (defaults built in)")
	listen := flag.String("listen", "", "override the listen address")
	httpListen := flag.String("http-listen", "", "override the HTTP listen address (range-read gateway + observability API)")
	node := flag.String("node", "", "override the node name")
	peerListen := flag.String("peer-listen", "", "peer-facing listen address; non-empty joins/forms a cluster")
	seeds := flag.String("seeds", "", "comma-separated peer_listen addresses of existing cluster members")
	writeDefault := flag.String("write-default", "", "write the default configuration to this path and exit")
	flag.Parse()

	// Bootstrap logger for errors before the config is loaded; replaced
	// by the configured one below.
	logger := newLogger("info", "text")

	if *writeDefault != "" {
		if err := config.Default().Save(*writeDefault); err != nil {
			fail(logger, "write default config", err)
		}
		fmt.Printf("wrote default configuration to %s\n", *writeDefault)
		return
	}

	cfg := config.Default()
	if *cfgPath != "" {
		var err error
		cfg, err = config.Load(*cfgPath)
		if err != nil {
			fail(logger, "load config", err)
		}
	}
	if *listen != "" {
		cfg.Listen = *listen
	}
	if *httpListen != "" {
		cfg.HTTPListen = *httpListen
	}
	if *node != "" {
		cfg.Node = *node
	}
	if *peerListen != "" {
		cfg.PeerListen = *peerListen
	}
	if *seeds != "" {
		cfg.Seeds = nil
		for _, s := range strings.Split(*seeds, ",") {
			if s = strings.TrimSpace(s); s != "" {
				cfg.Seeds = append(cfg.Seeds, s)
			}
		}
	}
	logger = newLogger(cfg.LogLevel, cfg.LogFormat)
	slog.SetDefault(logger)

	n, err := hfetch.NewNode(cfg)
	if err != nil {
		fail(logger, "build node", err)
	}
	defer n.Stop()
	srv := n.Server()
	if n.ClusterNode() != nil {
		logger.Info("joined cluster fabric",
			"component", "cluster",
			"node", cfg.Node,
			"peer_addr", cfg.PeerListen,
			"seeds", len(cfg.Seeds))
	}

	mux := comm.NewMux()
	mux.RegisterPing()
	remote.Serve(mux, srv)
	remote.ServeAdmin(mux, srv.FS())
	remote.ServeNodes(mux, func() []remote.NodeInfo { return nodeInfos(n, cfg) })
	ts, err := comm.ListenTCP(cfg.Listen, mux)
	if err != nil {
		fail(logger, "listen", err)
	}
	defer ts.Close()
	logger.Info("serving agent protocol",
		"component", "daemon",
		"node", cfg.Node,
		"addr", ts.Addr(),
		"tiers", len(cfg.Tiers),
		"segment_bytes", cfg.SegmentSize,
		"event_rings", srv.Monitor().Shards(),
		"clustered", n.ClusterNode() != nil)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var httpSrv *http.Server
	httpErr := make(chan error, 1)
	if cfg.HTTPListen != "" {
		// The gateway routes its own prefix; everything else is the
		// node's ops API.
		gw := n.GatewayHandler()
		api := remote.NewHTTPHandler(srv)
		root := func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, gateway.FilesPrefix) {
				gw.ServeHTTP(w, r)
				return
			}
			api.ServeHTTP(w, r)
		}
		httpSrv = &http.Server{
			Addr:              cfg.HTTPListen,
			Handler:           http.HandlerFunc(root),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("serving HTTP API",
				"component", "http",
				"addr", cfg.HTTPListen,
				"endpoints", "/files/{path} /metrics /healthz /stats /tiers /debug/trace /debug/pprof",
				"tenant_rps", cfg.TenantRPS)
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				httpErr <- err
			}
		}()
	}

	select {
	case <-ctx.Done():
		logger.Info("shutting down", "component", "daemon")
	case err := <-httpErr:
		logger.Error("HTTP API failed", "component", "http", "err", err)
	}
	if httpSrv != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			logger.Warn("http shutdown", "component", "http", "err", err)
		}
	}
}

// newLogger builds the daemon's structured logger; every record carries
// at least a component attribute at the call sites.
func newLogger(level, format string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: config.Config{LogLevel: level}.SlogLevel()}
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h)
}

func fail(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "component", "daemon", "err", err)
	os.Exit(1)
}

// nodeInfos answers ctl.nodes: the fabric view when clustered, a single
// self row otherwise.
func nodeInfos(n *hfetch.Node, cfg config.Config) []remote.NodeInfo {
	cn := n.ClusterNode()
	if cn == nil {
		return []remote.NodeInfo{{Name: cfg.Node, Addr: cfg.Listen, Ops: cfg.Listen, State: "alive"}}
	}
	infos := cn.Infos()
	out := make([]remote.NodeInfo, 0, len(infos))
	for _, mi := range infos {
		out = append(out, remote.NodeInfo{
			Name:              mi.Name,
			Addr:              mi.Addr,
			Ops:               mi.Ops,
			State:             mi.State,
			HeartbeatAgeNanos: int64(mi.HeartbeatAge),
			Keys:              mi.Keys,
			FetchP99Nanos:     mi.FetchP99,
		})
	}
	return out
}
