package nilsafe

import (
	"strings"
	"testing"

	"hfetch/internal/analysis/analysistest"
	"hfetch/internal/analysis/framework"
)

func fixtureConfig() Config {
	return Config{
		Pkg:   "hfetch/internal/analysis/nilsafe/testdata/src/gated",
		Gated: []string{"Tracer", "Guard"},
	}
}

func TestRuleBFixture(t *testing.T) {
	analysistest.Run(t, "./testdata/src/nilcaller", NewAnalyzer(fixtureConfig()))
}

// TestBareWaiverRejected proves the annotation grammar end to end: a
// reason-less //lint:allow produces an allowsyntax finding AND fails to
// suppress the nilsafe finding it names.
func TestBareWaiverRejected(t *testing.T) {
	pkgs, err := framework.Load(".", "./testdata/src/allowbare")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := framework.Run(pkgs, []*framework.Analyzer{NewAnalyzer(fixtureConfig())})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var sawMalformed, sawUnsuppressed bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "allowsyntax" && strings.Contains(d.Message, "malformed lint:allow"):
			sawMalformed = true
		case d.Analyzer == "nilsafe" && strings.Contains(d.Message, "outside a nil gate"):
			sawUnsuppressed = true
		default:
			t.Errorf("unexpected finding [%s]: %s", d.Analyzer, d.Message)
		}
	}
	if !sawMalformed {
		t.Error("bare //lint:allow not reported as malformed")
	}
	if !sawUnsuppressed {
		t.Error("bare //lint:allow wrongly suppressed the nilsafe finding")
	}
}

// TestRealTelemetryClean runs the default config over the whole
// module: every real caller of the lifecycle tracer and the watchdog
// reaches them through the gate.
func TestRealTelemetryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	analysistest.NoFindings(t, "hfetch/...", Analyzer)
}
