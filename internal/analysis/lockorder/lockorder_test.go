package lockorder

import (
	"go/types"
	"os"
	"strings"
	"testing"

	"hfetch/internal/analysis/analysistest"
	"hfetch/internal/analysis/framework"
)

const fixturePkg = "hfetch/internal/analysis/lockorder/testdata/src/lockfixture"

func fixtureManifest() Manifest {
	return Manifest{
		Classes: []Class{
			{Name: "ring", ReleasedBefore: true,
				Fields: []FieldSel{{fixturePkg + ".Ring", "mu"}}},
			{Name: "shard",
				Fields: []FieldSel{{fixturePkg + ".Shard", "mu"}}},
			{Name: "engine-run",
				Fields: []FieldSel{{fixturePkg + ".Engine", "runMu"}}},
			{Name: "engine-mu",
				Fields: []FieldSel{{fixturePkg + ".Engine", "mu"}}},
			{Name: "store",
				Fields: []FieldSel{{fixturePkg + ".Store", "mu"}}},
		},
		BarrierFuncs: []string{fixturePkg + ".IO.Write"},
	}
}

func TestLockorderFixture(t *testing.T) {
	analysistest.Run(t, "./testdata/src/lockfixture", NewAnalyzer(fixtureManifest()))
}

// TestLockorderReleaseFixture: the exit rule alone, for mutexes outside
// any manifest.
func TestLockorderReleaseFixture(t *testing.T) {
	analysistest.Run(t, "./testdata/src/lockrelease", NewAnalyzer(Manifest{}))
}

func TestLockorderReleaseClean(t *testing.T) {
	analysistest.NoFindings(t, "./testdata/src/releaseclean", NewAnalyzer(Manifest{}))
}

// TestLockorderBarrierPackage: inside a barrier package the I/O rule is
// off and the exit rule is not.
func TestLockorderBarrierPackage(t *testing.T) {
	const pkg = "hfetch/internal/analysis/lockorder/testdata/src/lockbarrier"
	m := Manifest{
		Classes:     []Class{{Name: "store", Fields: []FieldSel{{pkg + ".Store", "mu"}}}},
		BarrierPkgs: []string{pkg},
	}
	analysistest.Run(t, "./testdata/src/lockbarrier", NewAnalyzer(m))
}

func TestLockorderClean(t *testing.T) {
	cleanPkg := "hfetch/internal/analysis/lockorder/testdata/src/lockclean"
	m := fixtureManifest()
	m.Classes[0].Fields = []FieldSel{{cleanPkg + ".Ring", "mu"}}
	m.Classes[4].Fields = []FieldSel{{cleanPkg + ".Store", "mu"}}
	m.BarrierFuncs = []string{cleanPkg + ".IO.Write"}
	analysistest.NoFindings(t, "./testdata/src/lockclean", NewAnalyzer(m))
}

// TestManifestMatchesArchitecture pins the machine-readable manifest to
// the prose chain in ARCHITECTURE.md: same classes, same order, same
// released-between prefix. Editing one without the other fails here.
func TestManifestMatchesArchitecture(t *testing.T) {
	md, err := os.ReadFile("../../../ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("read ARCHITECTURE.md: %v", err)
	}
	chain, err := ParseArchitectureChain(md)
	if err != nil {
		t.Fatalf("parse chain: %v", err)
	}
	m := Default()
	if len(chain) != len(m.Classes) {
		t.Fatalf("ARCHITECTURE.md chain has %d locks, manifest has %d classes", len(chain), len(m.Classes))
	}
	for i, e := range chain {
		c := m.Classes[i]
		if e.Class != c.Name {
			t.Errorf("rank %d: ARCHITECTURE.md says %q, manifest says %q", i, e.Class, c.Name)
		}
		if e.ReleasedBefore != c.ReleasedBefore {
			t.Errorf("rank %d (%s): released-between is %v in ARCHITECTURE.md, %v in manifest",
				i, e.Class, e.ReleasedBefore, c.ReleasedBefore)
		}
	}
}

// TestDefaultManifestFieldsExist loads the real packages and asserts
// every manifest field selector resolves to an actual mutex field, so a
// rename cannot silently turn the analyzer off.
func TestDefaultManifestFieldsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module")
	}
	m := Default()
	pkgSet := make(map[string]bool)
	for _, c := range m.Classes {
		for _, f := range c.Fields {
			pkgSet[f.Type[:strings.LastIndex(f.Type, ".")]] = true
		}
	}
	var patterns []string
	for p := range pkgSet {
		patterns = append(patterns, p)
	}
	pkgs, err := framework.Load(".", patterns...)
	if err != nil {
		t.Fatalf("load manifest packages: %v", err)
	}
	byPath := make(map[string]*framework.Package)
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	for _, c := range m.Classes {
		for _, f := range c.Fields {
			dot := strings.LastIndex(f.Type, ".")
			pkgPath, typeName := f.Type[:dot], f.Type[dot+1:]
			pkg := byPath[pkgPath]
			if pkg == nil || pkg.Types == nil {
				t.Errorf("class %s: package %s not loaded", c.Name, pkgPath)
				continue
			}
			obj := pkg.Types.Scope().Lookup(typeName)
			if obj == nil {
				t.Errorf("class %s: type %s not found in %s", c.Name, typeName, pkgPath)
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				t.Errorf("class %s: %s is not a struct", c.Name, f.Type)
				continue
			}
			found := false
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Name() == f.Field {
					key := framework.TypeKey(framework.Named(st.Field(i).Type()))
					if key != "sync.Mutex" && key != "sync.RWMutex" {
						t.Errorf("class %s: %s.%s is %s, not a mutex", c.Name, f.Type, f.Field, key)
					}
					found = true
				}
			}
			if !found {
				t.Errorf("class %s: field %s.%s does not exist", c.Name, f.Type, f.Field)
			}
		}
	}
}
