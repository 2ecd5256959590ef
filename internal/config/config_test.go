package config

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hfetch.json")
	cfg := Default()
	cfg.Node = "nX"
	cfg.Files = []File{{Name: "a", Size: 100}}
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every key Save writes is one Load knows (hfetchd -write-default, then
	// -config), and comes back as it went.
	if !reflect.DeepEqual(got, cfg) {
		t.Fatalf("round trip = %+v, want %+v", got, cfg)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/hfetch.json"); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestLoadBadJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(path, "{nope"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("bad JSON must error")
	}
}

func TestLoadAppliesDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "min.json")
	if err := writeFile(path, `{"node":"n1"}`); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SegmentSize != 1<<20 || len(cfg.Tiers) != 3 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Node = "" }, "node"},
		{func(c *Config) { c.SegmentSize = 0 }, "segment_size"},
		{func(c *Config) { c.DecayBase = 1 }, "decay_base"},
		{func(c *Config) { c.Tiers = nil }, "tier"},
		{func(c *Config) { c.Tiers[0].Name = "" }, "name"},
		{func(c *Config) { c.Tiers[1].Name = c.Tiers[0].Name }, "duplicate"},
		{func(c *Config) { c.Tiers[0].CapacityBytes = 0 }, "capacity"},
		{func(c *Config) { c.Files = []File{{Name: "", Size: 1}} }, "file"},
		{func(c *Config) { c.MoverQueueDepth = -1 }, "mover_queue_depth"},
		{func(c *Config) { c.MoverConcurrency = []int{1, 1, 1, 1} }, "mover_concurrency"},
		{func(c *Config) { c.FetchWaitMS = -1 }, "fetch_wait_ms"},
	}
	for i, tc := range cases {
		cfg := Default()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want mention of %q", i, err, tc.want)
		}
	}
}

func TestDurations(t *testing.T) {
	cfg := Default()
	if cfg.DecayUnit() != time.Second || cfg.EngineInterval() != time.Second {
		t.Fatalf("durations = %v %v", cfg.DecayUnit(), cfg.EngineInterval())
	}
	if cfg.FetchWait() != 2*time.Millisecond {
		t.Fatalf("FetchWait = %v, want 2ms", cfg.FetchWait())
	}
}

func TestMoverDefaults(t *testing.T) {
	cfg := Default()
	if !cfg.FetchCoalesce {
		t.Fatalf("daemon must default to coalescing: %+v", cfg)
	}
	if cfg.MoverQueueDepth != 256 {
		t.Fatalf("MoverQueueDepth = %d, want 256", cfg.MoverQueueDepth)
	}
	// An explicit opt-out in the file survives the defaulting overlay.
	path := filepath.Join(t.TempDir(), "plain.json")
	if err := writeFile(path, `{"node":"n1","fetch_coalesce":false,"fetch_wait_ms":0}`); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.FetchCoalesce || got.FetchWaitMS != 0 {
		t.Fatalf("opt-out lost in defaulting: %+v", got)
	}
	// A retired knob or a misspelled one is refused by name, not ignored.
	for _, key := range []string{"async_mover", "daemons", "workers_per_shard", "fetch_coalese"} {
		if err := writeFile(path, `{"node":"n1","`+key+`":false}`); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("a file with %q loaded: err = %v, want one naming the key", key, err)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
