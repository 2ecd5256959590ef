// Package gated stands in for the telemetry package in the nilsafe
// fixtures: Tracer and Guard are configured as gated types, whose
// methods callers outside this package must reach through a nil check.
package gated

type Reg struct{ n int64 }

// Good is a method of a type that is not gated.
func (r *Reg) Good() {
	if r == nil {
		return
	}
	r.n++
}

// Tracer returns the gated tracer (nil when disabled).
func (r *Reg) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return &Tracer{}
}

type Tracer struct{ n int64 }

func (t *Tracer) On() {
	if t == nil {
		return
	}
	t.n++
}

// Guard stands in for the stall watchdog: a second gated type, nil
// when the feature is disabled.
type Guard struct{ trips int64 }

// Guard returns the gated watchdog stand-in (nil when disabled).
func (r *Reg) Guard() *Guard {
	if r == nil {
		return nil
	}
	return &Guard{}
}

func (g *Guard) Arm() {
	if g == nil {
		return
	}
	g.trips++
}

// Probe mirrors the watchdog's closure-registration surface; callers
// must not build the closure when the guard is nil.
func (g *Guard) Probe(fn func() int64) {
	if g == nil {
		return
	}
	g.trips += fn()
}
