package hfetch

import (
	"bytes"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfetch/internal/config"
	"hfetch/internal/core/seg"
	"hfetch/internal/core/server"
	"hfetch/internal/devsim"
)

// fastConfig returns a free-device config so API tests run instantly.
func fastConfig(nodes int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.SegmentSize = 4096
	cfg.EngineUpdateThreshold = ReactivenessHigh
	for i := range cfg.Tiers {
		cfg.Tiers[i].Latency = 0
		cfg.Tiers[i].Bandwidth = 0
	}
	cfg.PFS = PFSSpec{}
	return cfg
}

func TestQuickstartFlow(t *testing.T) {
	cluster, err := NewCluster(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.CreateFile("data/x", 64*4096); err != nil {
		t.Fatal(err)
	}
	client := cluster.Node(0).NewClient()
	f, err := client.Open("data/x")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	cluster.Node(0).Flush()
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if client.Stats().Hits() == 0 {
		t.Fatalf("warm read must hit: %s", client.Stats())
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 1 || len(cfg.Tiers) != 3 {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
	if cfg.Tiers[0].Name != "ram" || !cfg.Tiers[2].Shared {
		t.Fatal("tier defaults wrong")
	}
}

// TestOneConfiguration: the library's defaults are the daemon's. Every
// pipeline field of DefaultConfig() is config.Default()'s value, field for
// field, so the two cannot drift; every field of Config is either one of
// them or named here as not the pipeline's, so a new one cannot be
// forgotten; a library node and the daemon's node are one assembly; and
// the zero Config still builds the one pipeline there is — 8 event rings,
// moves through the mover.
func TestOneConfiguration(t *testing.T) {
	d := config.Default()
	got := DefaultConfig()
	pipeline := map[string][2]any{
		"SegmentSize":           {got.SegmentSize, d.SegmentSize},
		"DecayBase":             {got.DecayBase, d.DecayBase},
		"DecayUnit":             {got.DecayUnit, d.DecayUnit()},
		"SeqBoost":              {got.SeqBoost, d.SeqBoost},
		"HeatDir":               {got.HeatDir, d.HeatDir},
		"EventShards":           {got.EventShards, d.EventShards},
		"DropEvents":            {got.DropEvents, d.DropEvents()},
		"EngineThreads":         {got.EngineThreads, d.EngineWorkers},
		"EngineInterval":        {got.EngineInterval, d.EngineInterval()},
		"EngineUpdateThreshold": {got.EngineUpdateThreshold, d.EngineUpdateThreshold},
		"FetchWait":             {got.FetchWait, d.FetchWait()},
		"TimeScale":             {got.TimeScale, d.TimeScale},
		"Gateway": {got.Gateway, GatewaySpec{
			MaxInflight: d.GatewayMaxInflight, ClientInflight: d.GatewayClientInflight,
			TenantRPS: d.TenantRPS, TenantBurst: d.TenantBurst, AdmitWait: d.GatewayWait(),
		}},
		"PFS": {got.PFS, PFSSpec{Latency: devsim.PFSProfile.Latency, Bandwidth: devsim.PFSProfile.BytesPerSec, Servers: devsim.PFSProfile.Channels}},
	}
	for name, v := range pipeline {
		if !reflect.DeepEqual(v[0], v[1]) {
			t.Errorf("DefaultConfig().%s = %v, config.Default() has %v", name, v[0], v[1])
		}
	}
	if got.EventShards != 8 || got.FetchWait <= 0 {
		t.Errorf("DefaultConfig() = %+v: not the shipped pipeline", got)
	}
	if !reflect.DeepEqual(got.Tiers, DefaultTiers(8<<20, 24<<20, 32<<20)) {
		t.Errorf("DefaultConfig().Tiers = %+v", got.Tiers)
	}
	notPipeline := map[string]bool{
		// the deployment's and the caller's
		"Nodes": true, "Tiers": true, "ClusterHeartbeat": true, "ClusterTransport": true,
		"EnableTelemetry": true, "EnableLifecycle": true,
		"LifecycleSampleEvery": true, "TimeSampleEvery": true,
		// deprecated, read by nothing
		"DaemonThreads": true, "WorkersPerShard": true, "AsyncMover": true, "ClusterFabric": true,
		"MoverQueueDepth": true, "FetchCoalesce": true,
	}
	for i, typ := 0, reflect.TypeOf(got); i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := pipeline[name]; ok == notPipeline[name] {
			t.Errorf("Config.%s must be checked against config.Default() or named as not the pipeline's (exactly one)", name)
		}
	}

	// The telemetry knobs the daemon's file sets reach its node too.
	tel := d
	tel.LifecycleSampleEvery, tel.TimeSampleEvery = 2, 4
	if c := FromConfig(tel); c.LifecycleSampleEvery != 2 || c.TimeSampleEvery != 4 {
		t.Errorf("FromConfig dropped a telemetry knob: %+v", c)
	}

	// A node from DefaultConfig() with telemetry and lifecycle on and the
	// node NewNode builds from config.Default() have one server
	// configuration, one set of metric families and one watchdog.
	libCfg := DefaultConfig()
	libCfg.EnableTelemetry, libCfg.EnableLifecycle = true, true
	lib, err := NewCluster(libCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Stop()
	daemon, err := NewNode(d)
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Stop()
	var built [2]struct {
		srv      server.Config
		families []string
		probes   []string
	}
	for i, n := range []*Node{lib.Node(0), daemon} {
		n.GatewayHandler()
		b := &built[i]
		b.srv = n.Server().Config()
		b.srv.Telemetry, b.srv.Monitor.Telemetry, b.srv.Engine.Telemetry = nil, nil, nil
		seen := map[string]bool{}
		for _, m := range n.Telemetry().Snapshot().Metrics {
			if !seen[m.Name] {
				seen[m.Name] = true
				b.families = append(b.families, m.Name)
			}
		}
		sort.Strings(b.families)
		b.probes = n.wd.Probes()
	}
	if !reflect.DeepEqual(built[0].srv, built[1].srv) {
		t.Errorf("server configurations differ:\nlibrary %+v\ndaemon  %+v", built[0].srv, built[1].srv)
	}
	if !reflect.DeepEqual(built[0].families, built[1].families) || len(built[0].families) == 0 {
		t.Errorf("metric families differ:\nlibrary %v\ndaemon  %v", built[0].families, built[1].families)
	}
	if want := []string{"monitor", "mover", "gateway"}; !reflect.DeepEqual(built[0].probes, want) || !reflect.DeepEqual(built[1].probes, want) {
		t.Errorf("watchdog probes: library %v, daemon %v, want %v", built[0].probes, built[1].probes, want)
	}

	cluster, err := NewCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	const segs, segSize = 8, 1 << 20
	if err := cluster.CreateFile("data/cold", segs*segSize); err != nil {
		t.Fatal(err)
	}
	f, err := cluster.Node(0).NewClient().Open("data/cold")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, segSize)
	for i := int64(0); i < segs; i++ {
		if n, err := f.ReadAt(buf, i*segSize); err != nil || n != segSize {
			t.Fatalf("segment %d: n=%d err=%v", i, n, err)
		}
	}
	f.Close()
	cluster.Node(0).Flush()
	srv := cluster.Node(0).Server()
	if rings := srv.Monitor().Shards(); rings != 8 {
		t.Errorf("the zero Config built %d event rings, want 8", rings)
	}
	if ms := srv.Engine().MoverStats(); ms.Submitted == 0 {
		t.Errorf("the zero Config moved nothing through the mover after a cold sequential read: %+v", ms)
	}
}

func TestMultiNodeSharedView(t *testing.T) {
	cluster, err := NewCluster(fastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	cluster.CreateFile("f", 16*4096)

	// Node 0's client warms the shared burst buffer / statistics.
	c0 := cluster.Node(0).NewClient()
	f0, _ := c0.Open("f")
	buf := make([]byte, 4096)
	for off := int64(0); off < 16*4096; off += 4096 {
		f0.ReadAt(buf, off)
	}
	cluster.Node(0).Flush()

	// Node 1's client sees the same global segment mappings: segments
	// resident in node 0's tiers are served through the node-to-node
	// communicator, so they are hits, not PFS reads.
	c1 := cluster.Node(1).NewClient()
	f1, _ := c1.Open("f")
	got := make([]byte, 4096)
	want := make([]byte, 4096)
	for off := int64(0); off < 16*4096; off += 4096 {
		f1.ReadAt(got, off)
		cluster.FS().ReadAt("f", off, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("remote read corrupted data at %d", off)
		}
	}
	if c1.Stats().Hits() == 0 {
		t.Fatalf("cross-node hits expected, got %s", c1.Stats())
	}
	reads, _ := cluster.Node(1).Server().RemoteStats()
	_, serves := cluster.Node(0).Server().RemoteStats()
	if reads == 0 || serves == 0 {
		t.Fatalf("node-to-node data path unused: reads=%d serves=%d", reads, serves)
	}
	f0.Close()
	f1.Close()
}

// TestStaticClusterReadsPeersThroughFetcher: the nodes NewCluster builds
// boot from a static roster into the fabric, whose Fetcher is their one
// peer read path. Readers on node 1 that want a segment resident on
// node 0 at the same moment share one peer request.
func TestStaticClusterReadsPeersThroughFetcher(t *testing.T) {
	cfg := fastConfig(2)
	// Local tiers only, and a serve slow enough that the readers meet in
	// flight.
	cfg.Tiers = []TierSpec{{Name: "ram", Capacity: 1 << 20, Latency: 50 * time.Millisecond}}
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	for i := 0; i < 2; i++ {
		if cluster.ClusterNode(i) == nil {
			t.Fatalf("node%d runs no fabric", i)
		}
	}
	const segs = 8
	cluster.CreateFile("f", segs*4096)
	warm(t, cluster.Node(0), "f", segs*4096)

	srv1 := cluster.Node(1).Server()
	id := seg.ID{File: "f", Index: 0}
	if node, _, ok := srv1.Lookup(id); !ok || node != "node0" {
		t.Fatalf("segment 0 maps to %q (ok %v), want node0", node, ok)
	}
	want := make([]byte, 4096)
	cluster.FS().ReadAt("f", 0, want)
	reads0, _ := srv1.RemoteStats()
	const readers = 8
	start := make(chan struct{})
	var served atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			<-start
			if n, tier, ok := srv1.ReadPrefetched(id, 0, buf); ok && n == len(buf) && tier == "ram" && bytes.Equal(buf, want) {
				served.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if reads, _ := srv1.RemoteStats(); served.Load() != readers || reads-reads0 != 1 {
		t.Fatalf("%d of %d readers served from node 0's tier by %d peer requests, want all of them by 1",
			served.Load(), readers, reads-reads0)
	}
}

func TestConcurrentClientsSeparateFiles(t *testing.T) {
	cluster, err := NewCluster(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	for i := 0; i < 4; i++ {
		cluster.CreateFile(string(rune('a'+i)), 8*4096)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cluster.Node(0).NewClient()
			f, err := c.Open(string(rune('a' + i)))
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			buf := make([]byte, 4096)
			for pass := 0; pass < 3; pass++ {
				for off := int64(0); off < 8*4096; off += 4096 {
					if _, err := f.ReadAt(buf, off); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if _, ok := cluster.Node(0).Server().Hierarchy().ExclusiveOK(); !ok {
		t.Fatal("exclusivity violated")
	}
}

func TestDataIntegrityThroughPublicAPI(t *testing.T) {
	cluster, _ := NewCluster(fastConfig(1))
	defer cluster.Stop()
	const size = 32 * 4096
	cluster.CreateFile("f", size)
	want := make([]byte, size)
	cluster.FS().ReadAt("f", 0, want)

	c := cluster.Node(0).NewClient()
	f, _ := c.Open("f")
	defer f.Close()
	got := make([]byte, size)
	for pass := 0; pass < 2; pass++ {
		for off := 0; off < size; off += 4096 {
			f.ReadAt(got[off:off+4096], int64(off))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: corrupted data through public API", pass)
		}
		cluster.Node(0).Flush()
	}
}

func TestTimeScaleSpeedsDevices(t *testing.T) {
	cfg := fastConfig(1)
	cfg.PFS = PFSSpec{Latency: 50 * time.Millisecond, Bandwidth: 1e9, Servers: 1}
	cfg.TimeScale = 0.01 // 50ms -> 500µs
	cluster, _ := NewCluster(cfg)
	defer cluster.Stop()
	cluster.CreateFile("f", 4096)
	c := cluster.Node(0).NewClient()
	f, _ := c.Open("f")
	defer f.Close()
	start := time.Now()
	f.ReadAt(make([]byte, 4096), 0)
	if el := time.Since(start); el > 20*time.Millisecond {
		t.Fatalf("scaled PFS read took %v, want ~0.5ms", el)
	}
}
