// Package allowbare proves the waiver grammar: a //lint:allow with no
// reason is itself an allowsyntax finding, and it does NOT suppress the
// finding it names — so a bare annotation can never silently disable a
// check. A dedicated fixture (rather than a // want line in nilcaller)
// because the malformed-annotation diagnostic lands on the comment's
// own line, where a want comment cannot sit.
package allowbare

import "hfetch/internal/analysis/nilsafe/testdata/src/gated"

func bare(r *gated.Reg) {
	tr := r.Tracer()
	//lint:allow nilsafe
	tr.On()
}
