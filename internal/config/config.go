// Package config defines the JSON configuration cmd/hfetchd consumes: a
// user-defined description of the node's storage hierarchy (the hardware
// monitor discovers tiers from it), the scoring and engine parameters,
// and optionally a set of synthetic files to register at boot.
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"time"

	"hfetch/internal/core/monitor"
)

// Tier describes one tier of the deep memory and storage hierarchy.
type Tier struct {
	Name          string  `json:"name"`
	CapacityBytes int64   `json:"capacity_bytes"`
	LatencyUS     float64 `json:"latency_us"`
	BandwidthMBps float64 `json:"bandwidth_mbps"`
	Channels      int     `json:"channels"`
	Shared        bool    `json:"shared"`
}

// PFS describes the origin parallel file system.
type PFS struct {
	LatencyUS     float64 `json:"latency_us"`
	BandwidthMBps float64 `json:"bandwidth_mbps"`
	Servers       int     `json:"servers"`
}

// File pre-registers a synthetic file at boot.
type File struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// Config is the root document.
type Config struct {
	Node   string `json:"node"`
	Listen string `json:"listen"`
	// HTTPListen serves the read-only status API (/healthz, /stats,
	// /tiers, /metrics, /debug/trace, /debug/pprof) when non-empty.
	HTTPListen string `json:"http_listen,omitempty"`
	// PeerListen, when non-empty, turns the daemon into a cluster
	// member: a second TCP listener carries peer traffic (heartbeats,
	// hashmap operations, remote segment reads), kept separate from the
	// client-agent Listen address so operator traffic and fabric traffic
	// never share a connection.
	PeerListen string `json:"peer_listen,omitempty"`
	// Seeds are peer_listen addresses of existing members contacted to
	// join the cluster (the node also answers joins addressed to it, so
	// the first member needs no seeds).
	Seeds []string `json:"seeds,omitempty"`
	// HeartbeatMS is the membership probe interval (default 500).
	// SuspectAfterMS and DeadAfterMS are the silence thresholds after
	// which a member is judged suspect and dead (defaults 2000/5000).
	HeartbeatMS    int `json:"heartbeat_ms,omitempty"`
	SuspectAfterMS int `json:"suspect_after_ms,omitempty"`
	DeadAfterMS    int `json:"dead_after_ms,omitempty"`
	// PeerRequestTimeoutMS bounds every peer request (default 2000; a
	// peer that cannot answer within it degrades reads to the PFS).
	PeerRequestTimeoutMS int `json:"peer_request_timeout_ms,omitempty"`
	// DisableTelemetry turns off the metric registry (telemetry is on by
	// default in the daemon; the registry costs one pointer check per
	// instrumented operation plus the timestamp reads).
	DisableTelemetry bool `json:"disable_telemetry,omitempty"`
	// TimeSampleEvery times one in every N hot-path operations for the
	// latency histograms (default 8; 1 times everything).
	TimeSampleEvery int `json:"time_sample_every,omitempty"`
	// DisableLifecycle turns off the segment lifecycle tracer and the
	// prefetch-effectiveness ledger (on by default whenever telemetry is
	// on; export with hfetchctl trace or GET /debug/trace).
	DisableLifecycle bool `json:"disable_lifecycle,omitempty"`
	// LifecycleRing is the completed-trace flight-recorder size
	// (default 256).
	LifecycleRing int `json:"lifecycle_ring,omitempty"`
	// LifecycleSampleEvery roots one lifecycle trace in every N access
	// events (default 64; prefetches are always ledgered regardless).
	LifecycleSampleEvery int `json:"lifecycle_sample_every,omitempty"`
	// LifecycleMaxActive caps in-flight lifecycle traces (default 4096).
	LifecycleMaxActive int `json:"lifecycle_max_active,omitempty"`
	// DisableWatchdog turns off the stall watchdog (on by default
	// whenever telemetry is on; its steady-state cost is one probe sweep
	// per poll interval — the read path pays nothing).
	DisableWatchdog bool `json:"disable_watchdog,omitempty"`
	// WatchdogStallMS is how long a probe must show pending work with no
	// progress before the watchdog trips and dumps a diagnostic bundle
	// (default 5000).
	WatchdogStallMS int `json:"watchdog_stall_ms,omitempty"`
	// WatchdogDir is where trip bundles are written (default: the working
	// directory).
	WatchdogDir string `json:"watchdog_dir,omitempty"`
	// WatchdogMaxBundles bounds the on-disk bundle ring (default 4;
	// oldest bundles are pruned first).
	WatchdogMaxBundles int `json:"watchdog_max_bundles,omitempty"`

	// LogLevel selects the daemon's minimum log level: "debug", "info"
	// (default), "warn" or "error".
	LogLevel string `json:"log_level,omitempty"`
	// LogFormat selects the daemon's log encoding: "text" (default) or
	// "json".
	LogFormat string `json:"log_format,omitempty"`

	SegmentSize int64   `json:"segment_size"`
	DecayBase   float64 `json:"decay_base"`
	DecayUnitMS int     `json:"decay_unit_ms"`
	SeqBoost    float64 `json:"seq_boost"`
	HeatDir     string  `json:"heat_dir"`
	WALPath     string  `json:"wal_path"`

	// EventShards sizes the hardware monitor: events hash by file onto
	// that many independent rings, each drained by its own daemon, which
	// preserves per-file event order (the paper's daemon pool size; 1 is
	// its single event queue). Default 8; <= 0 takes the default.
	EventShards int `json:"event_shards"`
	// PostingPolicy is the queue overflow policy: "block" (default)
	// applies backpressure to producers, "drop" discards events when the
	// target ring is full (inotify IN_Q_OVERFLOW).
	PostingPolicy string `json:"posting_policy,omitempty"`
	// EventQueueCap bounds the event queue (total across shards;
	// default 65536).
	EventQueueCap int `json:"event_queue_cap,omitempty"`

	EngineWorkers         int `json:"engine_workers"`
	EngineIntervalMS      int `json:"engine_interval_ms"`
	EngineUpdateThreshold int `json:"engine_update_threshold"`

	// MoverConcurrency is the mover's worker count per tier, fastest
	// first (entries <= 0 or missing use the built-in default
	// max(2, 8>>tier)).
	MoverConcurrency []int `json:"mover_concurrency,omitempty"`
	// MoverQueueDepth bounds each per-tier mover queue; a full queue
	// applies backpressure to the placement pass. Default 256.
	MoverQueueDepth int `json:"mover_queue_depth,omitempty"`
	// FetchCoalesce merges adjacent queued PFS fetches of one file into
	// a single origin read. Daemon default true.
	FetchCoalesce bool `json:"fetch_coalesce"`
	// FetchWaitMS bounds how long a missing read waits for an in-flight
	// mover fetch of the same segment before falling back to the PFS.
	// Daemon default 2ms; 0 disables the wait.
	FetchWaitMS float64 `json:"fetch_wait_ms,omitempty"`

	// GatewayMaxInflight caps concurrently served gateway requests
	// across all clients (default 256); excess requests are shed with
	// 429 + Retry-After.
	GatewayMaxInflight int `json:"gateway_max_inflight,omitempty"`
	// GatewayClientInflight caps concurrent gateway requests per client
	// IP (default 64).
	GatewayClientInflight int `json:"gateway_client_inflight,omitempty"`
	// TenantRPS is the per-tenant token-bucket refill rate for gateway
	// admission in requests per second; 0 (default) disables tenant
	// rate limiting.
	TenantRPS float64 `json:"tenant_rps,omitempty"`
	// TenantBurst is the token-bucket depth (default 2×tenant_rps).
	TenantBurst float64 `json:"tenant_burst,omitempty"`
	// GatewayWaitMS bounds how long an over-rate gateway request waits
	// for a token before being shed (default 10ms).
	GatewayWaitMS float64 `json:"gateway_wait_ms,omitempty"`
	// StreamDetect enables the gateway's sequential-stream detector and
	// its readahead hints. Daemon default true.
	StreamDetect bool `json:"stream_detect"`
	// StreamDetectWindow is the byte tolerance between consecutive
	// ranges of one client still considered sequential (default: one
	// segment).
	StreamDetectWindow int64 `json:"stream_detect_window,omitempty"`
	// StreamLookahead is how many segments ahead a detected stream
	// hints (default 4).
	StreamLookahead int `json:"stream_lookahead,omitempty"`

	TimeScale float64 `json:"time_scale"`
	Tiers     []Tier  `json:"tiers"`
	PFS       PFS     `json:"pfs"`
	Files     []File  `json:"files"`
}

// Default returns a single-node development configuration.
func Default() Config {
	return Config{
		Node:                  "node0",
		Listen:                "127.0.0.1:7070",
		SegmentSize:           1 << 20,
		DecayBase:             2,
		DecayUnitMS:           1000,
		SeqBoost:              0.5,
		EventShards:           monitor.DefaultShards,
		PostingPolicy:         "block",
		EngineWorkers:         4,
		EngineIntervalMS:      1000,
		EngineUpdateThreshold: 100,
		MoverQueueDepth:       256,
		FetchCoalesce:         true,
		FetchWaitMS:           2,
		GatewayMaxInflight:    256,
		GatewayClientInflight: 64,
		GatewayWaitMS:         10,
		StreamDetect:          true,
		StreamLookahead:       4,
		TimeScale:             1,
		Tiers: []Tier{
			{Name: "ram", CapacityBytes: 64 << 20, LatencyUS: 0.2, BandwidthMBps: 8000, Channels: 8},
			{Name: "nvme", CapacityBytes: 192 << 20, LatencyUS: 30, BandwidthMBps: 2000, Channels: 4},
			{Name: "bb", CapacityBytes: 256 << 20, LatencyUS: 250, BandwidthMBps: 1000, Channels: 4, Shared: true},
		},
		PFS: PFS{LatencyUS: 3000, BandwidthMBps: 400, Servers: 6},
	}
}

// Load reads and validates a config file.
func Load(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	cfg := Default()
	// A retired knob or a misspelled one is an error that names the key,
	// not a setting silently left at its default.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("config: parse %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate checks the configuration for inconsistencies.
func (c Config) Validate() error {
	if c.Node == "" {
		return fmt.Errorf("config: node name required")
	}
	if c.SegmentSize <= 0 {
		return fmt.Errorf("config: segment_size must be positive, got %d", c.SegmentSize)
	}
	if c.DecayBase < 2 {
		return fmt.Errorf("config: decay_base must be >= 2, got %g", c.DecayBase)
	}
	if len(c.Tiers) == 0 {
		return fmt.Errorf("config: at least one tier required")
	}
	seen := map[string]bool{}
	for i, t := range c.Tiers {
		if t.Name == "" {
			return fmt.Errorf("config: tier %d has no name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("config: duplicate tier %q", t.Name)
		}
		seen[t.Name] = true
		if t.CapacityBytes <= 0 {
			return fmt.Errorf("config: tier %q capacity must be positive", t.Name)
		}
	}
	for i, f := range c.Files {
		if f.Name == "" || f.Size < 0 {
			return fmt.Errorf("config: file %d invalid (%q, %d bytes)", i, f.Name, f.Size)
		}
	}
	switch c.PostingPolicy {
	case "", "block", "drop":
	default:
		return fmt.Errorf("config: posting_policy must be \"block\" or \"drop\", got %q", c.PostingPolicy)
	}
	if c.EventQueueCap < 0 {
		return fmt.Errorf("config: event_queue_cap must be >= 0, got %d", c.EventQueueCap)
	}
	if c.MoverQueueDepth < 0 {
		return fmt.Errorf("config: mover_queue_depth must be >= 0, got %d", c.MoverQueueDepth)
	}
	if len(c.MoverConcurrency) > len(c.Tiers) {
		return fmt.Errorf("config: mover_concurrency has %d entries for %d tiers",
			len(c.MoverConcurrency), len(c.Tiers))
	}
	if c.FetchWaitMS < 0 {
		return fmt.Errorf("config: fetch_wait_ms must be >= 0, got %g", c.FetchWaitMS)
	}
	if c.GatewayMaxInflight < 0 || c.GatewayClientInflight < 0 {
		return fmt.Errorf("config: gateway_max_inflight and gateway_client_inflight must be >= 0")
	}
	if c.TenantRPS < 0 || c.TenantBurst < 0 || c.GatewayWaitMS < 0 {
		return fmt.Errorf("config: tenant_rps, tenant_burst and gateway_wait_ms must be >= 0")
	}
	if c.StreamDetectWindow < 0 || c.StreamLookahead < 0 {
		return fmt.Errorf("config: stream_detect_window and stream_lookahead must be >= 0")
	}
	if c.LifecycleRing < 0 || c.LifecycleSampleEvery < 0 || c.LifecycleMaxActive < 0 {
		return fmt.Errorf("config: lifecycle_ring, lifecycle_sample_every and lifecycle_max_active must be >= 0")
	}
	if c.WatchdogStallMS < 0 || c.WatchdogMaxBundles < 0 {
		return fmt.Errorf("config: watchdog_stall_ms and watchdog_max_bundles must be >= 0")
	}
	switch c.LogLevel {
	case "", "debug", "info", "warn", "error":
	default:
		return fmt.Errorf("config: log_level must be debug, info, warn or error, got %q", c.LogLevel)
	}
	switch c.LogFormat {
	case "", "text", "json":
	default:
		return fmt.Errorf("config: log_format must be \"text\" or \"json\", got %q", c.LogFormat)
	}
	if len(c.Seeds) > 0 && c.PeerListen == "" {
		return fmt.Errorf("config: seeds require peer_listen (the node must be dialable to join a cluster)")
	}
	if c.HeartbeatMS < 0 || c.SuspectAfterMS < 0 || c.DeadAfterMS < 0 || c.PeerRequestTimeoutMS < 0 {
		return fmt.Errorf("config: heartbeat_ms, suspect_after_ms, dead_after_ms and peer_request_timeout_ms must be >= 0")
	}
	hb, sus, dead := c.ClusterTimings()
	if !(hb < sus && sus < dead) {
		return fmt.Errorf("config: cluster timings must satisfy heartbeat < suspect_after < dead_after, got %v/%v/%v", hb, sus, dead)
	}
	return nil
}

// Clustered reports whether the daemon joins a multi-node fabric.
func (c Config) Clustered() bool { return c.PeerListen != "" }

// ClusterTimings returns the heartbeat interval and the suspect/dead
// silence thresholds with defaults applied (500ms / 2s / 5s).
func (c Config) ClusterTimings() (hb, suspect, dead time.Duration) {
	hb = 500 * time.Millisecond
	if c.HeartbeatMS > 0 {
		hb = time.Duration(c.HeartbeatMS) * time.Millisecond
	}
	suspect = 4 * hb
	if c.SuspectAfterMS > 0 {
		suspect = time.Duration(c.SuspectAfterMS) * time.Millisecond
	}
	dead = 10 * hb
	if c.DeadAfterMS > 0 {
		dead = time.Duration(c.DeadAfterMS) * time.Millisecond
	}
	return hb, suspect, dead
}

// PeerRequestTimeout bounds peer requests (default 2s).
func (c Config) PeerRequestTimeout() time.Duration {
	if c.PeerRequestTimeoutMS > 0 {
		return time.Duration(c.PeerRequestTimeoutMS) * time.Millisecond
	}
	return 2 * time.Second
}

// SlogLevel maps the configured log level onto slog's scale (info when
// unset). Call Validate first; unknown strings also map to info.
func (c Config) SlogLevel() slog.Level {
	switch c.LogLevel {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	}
	return slog.LevelInfo
}

// GatewayWait returns the gateway's bounded admission wait as a
// duration.
func (c Config) GatewayWait() time.Duration {
	return time.Duration(c.GatewayWaitMS * float64(time.Millisecond))
}

// WatchdogStall returns the stall threshold after which the watchdog
// trips (default 5s).
func (c Config) WatchdogStall() time.Duration {
	if c.WatchdogStallMS > 0 {
		return time.Duration(c.WatchdogStallMS) * time.Millisecond
	}
	return 5 * time.Second
}

// FetchWait returns the read-path bounded fetch wait as a duration.
func (c Config) FetchWait() time.Duration {
	return time.Duration(c.FetchWaitMS * float64(time.Millisecond))
}

// DropEvents reports whether the posting policy discards events on
// overflow instead of blocking the producer.
func (c Config) DropEvents() bool { return c.PostingPolicy == "drop" }

// DecayUnit returns the decay step as a duration.
func (c Config) DecayUnit() time.Duration {
	return time.Duration(c.DecayUnitMS) * time.Millisecond
}

// EngineInterval returns trigger (a) as a duration.
func (c Config) EngineInterval() time.Duration {
	return time.Duration(c.EngineIntervalMS) * time.Millisecond
}

// Save writes the configuration as indented JSON.
func (c Config) Save(path string) error {
	raw, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
