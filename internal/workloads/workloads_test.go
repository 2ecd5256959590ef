package workloads

import (
	"testing"
	"time"
)

func TestPatternScriptSequential(t *testing.T) {
	s := PatternScript(Sequential, "f", 1000, 100, 500, time.Millisecond, 0)
	if len(s) != 5 {
		t.Fatalf("len = %d, want 5", len(s))
	}
	for i, a := range s {
		if a.Off != int64(i*100) || a.Len != 100 || a.File != "f" {
			t.Fatalf("access %d = %+v", i, a)
		}
	}
}

func TestPatternScriptSequentialWraps(t *testing.T) {
	s := PatternScript(Sequential, "f", 300, 100, 600, 0, 0)
	if len(s) != 6 {
		t.Fatalf("len = %d", len(s))
	}
	if s[3].Off != 0 {
		t.Fatalf("wrap offset = %d, want 0", s[3].Off)
	}
}

func TestPatternScriptStrided(t *testing.T) {
	s := PatternScript(Strided, "f", 10000, 100, 300, 0, 0)
	if len(s) != 3 {
		t.Fatalf("len = %d", len(s))
	}
	if s[1].Off-s[0].Off != 400 {
		t.Fatalf("stride = %d, want 400", s[1].Off-s[0].Off)
	}
}

func TestPatternScriptRepetitiveStaysInWindow(t *testing.T) {
	s := PatternScript(Repetitive, "f", 100000, 100, 5000, 0, 0)
	for _, a := range s {
		if a.Off+a.Len > 800 {
			t.Fatalf("repetitive access outside window: %+v", a)
		}
	}
}

func TestPatternScriptIrregularSeeded(t *testing.T) {
	a := PatternScript(Irregular, "f", 10000, 100, 1000, 0, 42)
	b := PatternScript(Irregular, "f", 10000, 100, 1000, 0, 42)
	c := PatternScript(Irregular, "f", 10000, 100, 1000, 0, 43)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
	for _, acc := range a {
		if acc.Off < 0 || acc.Off+acc.Len > 10000 {
			t.Fatalf("irregular access out of bounds: %+v", acc)
		}
	}
}

func TestPatternScriptDegenerate(t *testing.T) {
	if s := PatternScript(Sequential, "f", 0, 100, 100, 0, 0); s != nil {
		t.Fatal("zero file size must yield nil")
	}
	if s := PatternScript(Sequential, "f", 100, 0, 100, 0, 0); s != nil {
		t.Fatal("zero req must yield nil")
	}
	if s := PatternScript(Irregular, "f", 50, 100, 100, 0, 0); len(s) == 0 {
		t.Fatal("req > file must still produce one access at 0")
	}
}

func TestSharedFileGroups(t *testing.T) {
	apps := SharedFileGroups(4, 8, 1<<20, 4096, 64*4096, Sequential, 0)
	if len(apps) != 4 {
		t.Fatalf("apps = %d", len(apps))
	}
	for i, a := range apps {
		if len(a.Procs) != 8 {
			t.Fatalf("app %d procs = %d", i, len(a.Procs))
		}
		file := a.Procs[0][0].File
		for _, p := range a.Procs {
			for _, acc := range p {
				if acc.File != file {
					t.Fatal("all procs of one app must share the file")
				}
			}
		}
	}
	if len(Files(apps)) != 4 {
		t.Fatalf("distinct files = %d, want 4", len(Files(apps)))
	}
}

func TestTimeSteppedPassesAndThink(t *testing.T) {
	s := TimeStepped("f", 1000, 100, 3, time.Second)
	if len(s) != 30 {
		t.Fatalf("len = %d, want 30", len(s))
	}
	thinks := 0
	for _, a := range s {
		if a.Think > 0 {
			thinks++
		}
	}
	if thinks != 3 {
		t.Fatalf("think markers = %d, want 3 (one per pass)", thinks)
	}
}

func TestBurstClasses(t *testing.T) {
	unit := 10 * time.Millisecond
	w1 := Burst(W1DataIntensive, 4, 1<<20, 4096, 2, unit)
	w3 := Burst(W3ComputeIntensive, 4, 1<<20, 4096, 2, unit)
	if w1[0].Name != "w1" || w3[0].Name != "w3" {
		t.Fatal("names wrong")
	}
	think := func(apps []App) time.Duration {
		for _, p := range apps[0].Procs {
			for _, a := range p {
				if a.Think > 0 {
					return a.Think
				}
			}
		}
		return 0
	}
	if think(w3) <= think(w1) {
		t.Fatal("compute-intensive must think longer than data-intensive")
	}
}

func TestTotalBytes(t *testing.T) {
	apps := SharedFileGroups(2, 2, 1000, 100, 500, Sequential, 0)
	if got := TotalBytes(apps); got != 2*2*500 {
		t.Fatalf("TotalBytes = %d, want 2000", got)
	}
}

func TestMontageShape(t *testing.T) {
	cfg := MontageConfig{Procs: 4, ImageBytes: 1 << 16, Images: 4, Req: 4096, Steps: 16, Think: 0}
	apps := Montage(cfg)
	if len(apps) != 4 {
		t.Fatalf("phases = %d, want 4", len(apps))
	}
	names := map[string]bool{}
	for _, a := range apps {
		names[a.Name] = true
		if len(a.Procs) != 4 {
			t.Fatalf("phase %s procs = %d", a.Name, len(a.Procs))
		}
	}
	if !names["mProject"] || !names["mDiffFit"] {
		t.Fatalf("phase names = %v", names)
	}
	files := MontageFiles(cfg)
	if len(files) != 4 {
		t.Fatalf("files = %d", len(files))
	}
	// Every referenced file must exist in the manifest.
	for _, f := range Files(apps) {
		if _, ok := files[f]; !ok {
			t.Fatalf("script references unknown file %q", f)
		}
	}
}

func TestWRFStrongScaling(t *testing.T) {
	mk := func(procs int) int64 {
		return TotalBytes(WRF(WRFConfig{
			Procs: procs, TotalBytes: 1 << 22, Req: 4096, Steps: 4, Domains: 4,
		}))
	}
	t8, t16 := mk(8), mk(16)
	// Strong scaling: total I/O roughly constant across scales. This checks
	// the byte total only; TestWRFPassCoversInputOnce checks which bytes.
	ratio := float64(t16) / float64(t8)
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("strong scaling violated: 8 procs %d bytes, 16 procs %d bytes", t8, t16)
	}
}

// Every pass of every WRF phase reads each Req block of each domain
// exactly once across the processes: at Figure 6(b)'s scales (8–64
// processes over 16 MiB in four domains, 64 KiB requests), at process
// counts that are not a multiple of the domains, and beyond the blocks a
// domain has.
func TestWRFPassCoversInputOnce(t *testing.T) {
	for _, procs := range []int{8, 16, 32, 64, 6, 10, 300} {
		cfg := WRFConfig{Procs: procs, TotalBytes: 16 << 20, Req: 64 << 10, Steps: 4, Domains: 4}
		files := WRFFiles(cfg)
		for _, app := range WRF(cfg) {
			passes := 1
			if app.Name == "wrf" {
				passes = cfg.Steps
			}
			reads := make([]map[Access]int, passes)
			for k := range reads {
				reads[k] = map[Access]int{}
			}
			for p, script := range app.Procs {
				if len(script)%passes != 0 {
					t.Fatalf("%d procs, %s: process %d makes %d reads, not %d equal passes", procs, app.Name, p, len(script), passes)
				}
				per := len(script) / passes
				for i, a := range script {
					if a.Off%cfg.Req != 0 || a.Len != cfg.Req {
						t.Fatalf("%d procs, %s: process %d reads %+v, not one whole block", procs, app.Name, p, a)
					}
					a.Think = 0
					reads[i/per][a]++
				}
			}
			for k, got := range reads {
				want := 0
				for name, size := range files {
					for off := int64(0); off+cfg.Req <= size; off += cfg.Req {
						want++
						if n := got[Access{File: name, Off: off, Len: cfg.Req}]; n != 1 {
							t.Errorf("%d procs, %s pass %d: block %s@%d read %d times, want once", procs, app.Name, k, name, off, n)
						}
					}
				}
				if len(got) != want {
					t.Errorf("%d procs, %s pass %d: %d distinct blocks read, the domains hold %d", procs, app.Name, k, len(got), want)
				}
			}
		}
	}
}

func TestWRFFilesCoverScripts(t *testing.T) {
	cfg := WRFConfig{Procs: 8, TotalBytes: 1 << 22, Req: 4096, Steps: 4, Domains: 4}
	files := WRFFiles(cfg)
	for _, f := range Files(WRF(cfg)) {
		size, ok := files[f]
		if !ok || size <= 0 {
			t.Fatalf("unknown or empty file %q", f)
		}
	}
	// Accesses stay in bounds.
	for _, app := range WRF(cfg) {
		for _, p := range app.Procs {
			for _, a := range p {
				if a.Off < 0 || a.Off+a.Len > files[a.File] {
					t.Fatalf("out-of-bounds access %+v (file size %d)", a, files[a.File])
				}
			}
		}
	}
}
