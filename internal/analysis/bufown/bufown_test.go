package bufown

import (
	"testing"

	"hfetch/internal/analysis/analysistest"
)

const fixturePkg = "hfetch/internal/analysis/bufown/testdata/src/buffixture"
const cleanPkg = "hfetch/internal/analysis/bufown/testdata/src/bufclean"

func fixtureConfig(pkg string) Config {
	return Config{
		Acquires: []Acquire{
			{Callee: pkg + ".NewBuf", Result: 0, Cond: -1,
				Release: []string{"Release"}, Alias: []string{"Bytes"},
				Name: "buffer (NewBuf)"},
			{Callee: pkg + ".Store.View", Result: 0,
				Cond: 1, CondKind: CondBool,
				Release: []string{"Release"}, Alias: []string{"Bytes"},
				Name: "pinned view (Store.View)"},
			{Callee: pkg + ".Store.TakeBuf", Result: 0,
				Cond: 1, CondKind: CondErrNil,
				Release: []string{"Release"}, Alias: []string{"Bytes"},
				Name: "taken buffer (Store.TakeBuf)"},
			{Callee: pkg + ".Call", Result: 0,
				Cond: 1, CondKind: CondErrNil,
				Release: []string{"Release"}, Alias: []string{"Head"},
				Name: "reply (Call)"},
		},
		Transfers: []Transfer{
			{Callee: pkg + ".Store.PutBuf", Arg: 1, HasErr: true},
		},
	}
}

func TestBufownFixture(t *testing.T) {
	analysistest.Run(t, "./testdata/src/buffixture", NewAnalyzer(fixtureConfig(fixturePkg)))
}

func TestBufownClean(t *testing.T) {
	analysistest.NoFindings(t, "./testdata/src/bufclean", NewAnalyzer(fixtureConfig(cleanPkg)))
}
