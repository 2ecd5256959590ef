// Command hfetchd runs a standalone HFetch server node: it builds the
// configured tier hierarchy over the emulated PFS, starts the hardware
// monitor and the hierarchical data placement engine, and serves the
// agent protocol (open/read/write/close + admin/ctl) over TCP. When
// http_listen is configured it also serves the observability API:
// /metrics (Prometheus text), /healthz, /stats, /tiers,
// /debug/trace (Perfetto-loadable lifecycle traces), and /debug/pprof.
//
// Usage:
//
//	hfetchd [-config hfetch.json] [-listen addr] [-write-default path]
//	        [-log-level info] [-log-format text|json]
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
	"hfetch/internal/cluster"
	"hfetch/internal/comm"
	"hfetch/internal/config"
	"hfetch/internal/core/remote"
	"hfetch/internal/core/server"
	"hfetch/internal/devsim"
	"hfetch/internal/dhm"
	"hfetch/internal/gateway"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

func main() {
	cfgPath := flag.String("config", "", "path to the JSON configuration (defaults built in)")
	listen := flag.String("listen", "", "override the listen address")
	httpListen := flag.String("http-listen", "", "override the HTTP listen address (range-read gateway + observability API)")
	node := flag.String("node", "", "override the node name")
	peerListen := flag.String("peer-listen", "", "peer-facing listen address; non-empty joins/forms a cluster")
	seeds := flag.String("seeds", "", "comma-separated peer_listen addresses of existing cluster members")
	writeDefault := flag.String("write-default", "", "write the default configuration to this path and exit")
	moverQueueDepth := flag.Int("mover-queue-depth", 0, "override the per-tier mover queue bound (0 = config/default 256)")
	fetchCoalesce := flag.Bool("fetch-coalesce", true, "merge adjacent queued PFS fetches into one origin read")
	fetchWaitMS := flag.Float64("fetch-wait-ms", -1, "bounded read wait for an in-flight fetch in ms (-1 = config/default 2)")
	streamDetect := flag.Bool("stream-detect", true, "detect sequential gateway streams and post readahead hints")
	tenantRPS := flag.Float64("tenant-rps", 0, "per-tenant gateway admission rate in req/s (0 = unlimited)")
	disableWatchdog := flag.Bool("disable-watchdog", false, "turn off the stall watchdog")
	watchdogStallMS := flag.Int("watchdog-stall-ms", 0, "stall window before the watchdog trips in ms (0 = config/default 5000)")
	watchdogDir := flag.String("watchdog-dir", "", "directory for watchdog diagnostic bundles (default working directory)")
	logLevel := flag.String("log-level", "", "minimum log level: debug, info, warn, error (default config/info)")
	logFormat := flag.String("log-format", "", "log encoding: text or json (default config/text)")
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
	// Flags override the file only when set on the command line, so a
	// config file's fetch_coalesce / stream_detect choices survive bare
	// invocations.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "mover-queue-depth":
			cfg.MoverQueueDepth = *moverQueueDepth
		case "fetch-coalesce":
			cfg.FetchCoalesce = *fetchCoalesce
		case "fetch-wait-ms":
			cfg.FetchWaitMS = *fetchWaitMS
		case "stream-detect":
			cfg.StreamDetect = *streamDetect
		case "tenant-rps":
			cfg.TenantRPS = *tenantRPS
		case "disable-watchdog":
			cfg.DisableWatchdog = *disableWatchdog
		case "watchdog-stall-ms":
			cfg.WatchdogStallMS = *watchdogStallMS
		case "watchdog-dir":
			cfg.WatchdogDir = *watchdogDir
		case "log-level":
			cfg.LogLevel = *logLevel
		case "log-format":
			cfg.LogFormat = *logFormat
		}
	})
	if err := cfg.Validate(); err != nil {
		fail(logger, "validate config", err)
	}
	logger = newLogger(cfg.LogLevel, cfg.LogFormat)
	slog.SetDefault(logger)

	d, err := build(cfg)
	if err != nil {
		fail(logger, "build server", err)
	}
	d.srv.Start()
	defer d.srv.Stop()

	if d.cnode != nil {
		peerSrv, err := comm.ListenTCP(cfg.PeerListen, d.peerMux)
		if err != nil {
			fail(logger, "peer listen", err)
		}
		peerSrv.SetStats(d.cnode.CommStats())
		defer peerSrv.Close()
		d.cnode.Start()
		defer d.cnode.Stop()
		logger.Info("joined cluster fabric",
			"component", "cluster",
			"node", cfg.Node,
			"peer_addr", peerSrv.Addr(),
			"seeds", len(cfg.Seeds))
	}

	mux := comm.NewMux()
	mux.RegisterPing()
	remote.Serve(mux, d.srv)
	remote.ServeAdmin(mux, d.fs)
	remote.ServeNodes(mux, d.nodeInfos)
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
		"event_rings", d.srv.Monitor().Shards(),
		"clustered", d.cnode != nil)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Stall watchdog: probes every pipeline that can wedge (event shards,
	// mover, membership, and the gateway below), dumps a diagnostic
	// bundle when one stops progressing with work pending.
	var wd *telemetry.Watchdog
	if reg := d.srv.Telemetry(); reg != nil && !cfg.DisableWatchdog {
		wd = telemetry.NewWatchdog(telemetry.WatchdogConfig{
			Stall:      cfg.WatchdogStall(),
			Dir:        cfg.WatchdogDir,
			MaxBundles: cfg.WatchdogMaxBundles,
			Registry:   reg,
		})
	}
	if wd != nil {
		mon := d.srv.Monitor()
		wd.AddProbe(telemetry.WatchdogProbe{
			Name:     "monitor",
			Pending:  func() int64 { return int64(mon.Backlog()) },
			Progress: mon.Consumed,
		})
		eng := d.srv.Engine()
		wd.AddProbe(telemetry.WatchdogProbe{
			Name:    "mover",
			Pending: func() int64 { return int64(eng.MoverStats().Outstanding) },
			Progress: func() int64 {
				ms := eng.MoverStats()
				return ms.Executed + ms.Failed + ms.Cancelled + ms.Superseded
			},
		})
		wd.AddDump("mover", func() string {
			ms := eng.MoverStats()
			return fmt.Sprintf("submitted=%d executed=%d failed=%d coalesced=%d superseded=%d cancelled=%d outstanding=%d queue_depths=%v",
				ms.Submitted, ms.Executed, ms.Failed, ms.Coalesced, ms.Superseded, ms.Cancelled, ms.Outstanding, ms.QueueDepths)
		})
		if d.cnode != nil {
			mem := d.cnode.Membership()
			wd.AddProbe(telemetry.WatchdogProbe{
				Name:     "membership",
				Pending:  mem.SuspectCount,
				Progress: mem.HeartbeatsSent,
			})
		}
	}

	var httpSrv *http.Server
	var gw *gateway.Gateway
	httpErr := make(chan error, 1)
	if cfg.HTTPListen != "" {
		gcfg := hfetch.FromConfig(cfg).Gateway.Config(d.srv.Telemetry())
		if cfg.SlogLevel() <= slog.LevelDebug {
			gcfg.Logger = logger
		}
		gw = gateway.New(d.srv, gcfg)
		if wd != nil {
			wd.AddProbe(telemetry.WatchdogProbe{
				Name:     "gateway",
				Pending:  gw.InflightNow,
				Progress: gw.Completed,
			})
		}
		root := http.NewServeMux()
		root.Handle("/files/", gw)
		root.Handle("/", remote.NewHTTPHandler(d.srv))
		httpSrv = &http.Server{
			Addr:              cfg.HTTPListen,
			Handler:           root,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("serving HTTP API",
				"component", "http",
				"addr", cfg.HTTPListen,
				"endpoints", "/files/{path} /metrics /healthz /stats /tiers /debug/trace /debug/pprof",
				"stream_detect", cfg.StreamDetect,
				"tenant_rps", cfg.TenantRPS)
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				httpErr <- err
			}
		}()
	}
	if wd != nil {
		wd.Start()
		defer wd.Stop()
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
	if gw != nil {
		gw.Close()
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

// daemon bundles the built node: the server, its PFS, and (when
// peer_listen is configured) the cluster fabric pieces.
type daemon struct {
	srv     *server.Server
	fs      *pfs.FS
	cnode   *cluster.Node
	peerMux *comm.Mux
	cfg     config.Config
}

// nodeInfos answers ctl.nodes: the fabric view when clustered, a single
// self row otherwise.
func (d *daemon) nodeInfos() []remote.NodeInfo {
	if d.cnode == nil {
		return []remote.NodeInfo{{Name: d.cfg.Node, Addr: d.cfg.Listen, Ops: d.cfg.Listen, State: "alive"}}
	}
	infos := d.cnode.Infos()
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

// build assembles the server (and, when configured, the cluster fabric)
// from the configuration. The caller starts the peer listener and the
// fabric after the server is running.
func build(cfg config.Config) (*daemon, error) {
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1
	}
	fs := pfs.New(devsim.New(devsim.Profile{
		Name:        "pfs",
		Latency:     time.Duration(cfg.PFS.LatencyUS * float64(time.Microsecond)),
		BytesPerSec: cfg.PFS.BandwidthMBps * 1e6,
		Channels:    cfg.PFS.Servers,
	}, scale))
	for _, f := range cfg.Files {
		if err := fs.Create(f.Name, f.Size); err != nil {
			return nil, err
		}
	}
	var stores []*tiers.Store
	var shared []string
	for _, t := range cfg.Tiers {
		dev := devsim.New(devsim.Profile{
			Name:        t.Name,
			Latency:     time.Duration(t.LatencyUS * float64(time.Microsecond)),
			BytesPerSec: t.BandwidthMBps * 1e6,
			Channels:    t.Channels,
		}, scale)
		stores = append(stores, tiers.NewStore(t.Name, t.CapacityBytes, dev))
		if t.Shared {
			shared = append(shared, t.Name)
		}
	}

	var reg *telemetry.Registry
	if !cfg.DisableTelemetry {
		reg = telemetry.NewRegistry()
		if cfg.TimeSampleEvery > 0 {
			reg.SetTimeSampling(cfg.TimeSampleEvery)
		}
		if !cfg.DisableLifecycle {
			reg.EnableLifecycle(cfg.LifecycleRing, cfg.LifecycleSampleEvery, cfg.LifecycleMaxActive)
		}
	}

	d := &daemon{fs: fs, cfg: cfg}
	var stats, maps *dhm.Map
	if cfg.Clustered() {
		hb, suspect, dead := cfg.ClusterTimings()
		reqTimeout := cfg.PeerRequestTimeout()
		d.peerMux = comm.NewMux()
		d.peerMux.RegisterPing()
		// One comm.Stats instance per registry: cluster.New builds its own
		// from the same registry, and duplicate registration returns the
		// same underlying series, so both count into one family.
		cstats := comm.NewStats(reg)
		d.cnode = cluster.New(cluster.Config{
			Self:              cfg.Node,
			Addr:              cfg.PeerListen,
			Ops:               cfg.Listen,
			Seeds:             cfg.Seeds,
			HeartbeatInterval: hb,
			SuspectAfter:      suspect,
			DeadAfter:         dead,
			Mux:               d.peerMux,
			DialAddr: func(addr string) (comm.Peer, error) {
				return comm.DialTCPOpts(addr, comm.PeerOptions{
					DialTimeout:    reqTimeout,
					RequestTimeout: reqTimeout,
					DialAttempts:   2,
					Stats:          cstats,
				})
			},
			Telemetry: reg,
		})
		var err error
		stats, maps, _, err = server.NewClusterMaps(cfg.Node, cfg.WALPath, d.cnode.Dialer(), d.peerMux)
		if err != nil {
			return nil, err
		}
	} else if cfg.WALPath != "" {
		var err error
		stats, maps, _, err = server.NewPersistentMaps(cfg.Node, cfg.WALPath)
		if err != nil {
			return nil, err
		}
	} else {
		stats, maps = server.NewLocalMaps(cfg.Node)
	}

	// The library's translation of the file, so that the daemon, the
	// library and the paper's figures build one pipeline.
	scfg := hfetch.FromConfig(cfg).ServerConfig(cfg.Node)
	scfg.SharedTiers = shared
	scfg.Telemetry = reg
	scfg.Monitor.QueueCap = cfg.EventQueueCap
	srv, err := server.New(scfg, fs, tiers.NewHierarchy(stores...), stats, maps)
	if err != nil {
		return nil, err
	}
	d.srv = srv
	if d.cnode != nil {
		d.cnode.Attach(srv, stats, maps)
	}
	return d, nil
}
