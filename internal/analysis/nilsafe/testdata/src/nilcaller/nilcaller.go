// Package nilcaller exercises nilsafe's call-site gate: method calls on
// the gated Tracer and Guard types must sit behind a nil gate.
package nilcaller

import "hfetch/internal/analysis/nilsafe/testdata/src/gated"

func ungated(r *gated.Reg) {
	tr := r.Tracer()
	tr.On() // want `call to Tracer.On outside a nil gate`
}

func unbound(r *gated.Reg) {
	r.Tracer().On() // want `call to Tracer.On on an unbound expression`
}

func gatedIf(r *gated.Reg) {
	if tr := r.Tracer(); tr != nil {
		tr.On()
	}
}

func gatedEarly(r *gated.Reg) {
	tr := r.Tracer()
	if tr == nil {
		return
	}
	tr.On()
}

func gatedParam(tr *gated.Tracer) {
	if tr == nil {
		return
	}
	tr.On()
}

func waived(r *gated.Reg) {
	tr := r.Tracer()
	//lint:allow nilsafe fixture demonstrates a waived ungated call
	tr.On()
}

// Reg is nil-safe but not gated: direct calls are fine.
func regDirect(r *gated.Reg) {
	r.Good()
}

// Guard is gated too: the same call-site rules apply to the second
// entry in the gated-type list.
func guardUngated(r *gated.Reg) {
	g := r.Guard()
	g.Arm() // want `call to Guard.Arm outside a nil gate`
}

func guardUnbound(r *gated.Reg) {
	r.Guard().Arm() // want `call to Guard.Arm on an unbound expression`
}

func guardGated(r *gated.Reg) {
	if g := r.Guard(); g != nil {
		g.Arm()
	}
}

func guardGatedEarly(g *gated.Guard) {
	if g == nil {
		return
	}
	g.Arm()
}

// guardProbeGated is the watchdog probe idiom: the closure is only
// built inside the gate, so a disabled watchdog costs one branch.
func guardProbeGated(r *gated.Reg) {
	if g := r.Guard(); g != nil {
		g.Probe(func() int64 { return 1 })
	}
}

// guardProbeUngated builds the closure without a gate.
func guardProbeUngated(r *gated.Reg) {
	g := r.Guard()
	g.Probe(func() int64 { return 1 }) // want `call to Guard.Probe outside a nil gate`
}

// guardManyCalls: one early gate covers every later call in the
// function body.
func guardManyCalls(r *gated.Reg) {
	g := r.Guard()
	if g == nil {
		return
	}
	g.Arm()
	g.Probe(func() int64 { return 2 })
	g.Arm()
}
