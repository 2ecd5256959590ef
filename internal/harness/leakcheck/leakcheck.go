package leakcheck

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"hfetch/internal/tiers"
)

// TB is the subset of testing.TB the leak guard needs; taking the
// interface keeps this file out of non-test binaries' testing import
// graph concerns while remaining directly usable as
// `defer leakcheck.Guard(t)()`.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Logf(format string, args ...any)
}

// leakAllowlist matches goroutine stacks that are expected to outlive
// any single test: runtime helpers, the testing framework itself,
// net/http's shared transport machinery (idle keep-alive readers park
// there between requests and are reaped on their own schedule), and
// devsim's clock, whose kernel-timer goroutine the first modeled wait of
// the process starts and nothing stops.
var leakAllowlist = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*T).Run(",
	"runtime.goexit",
	"runtime.gc",
	"runtime.MHeap_Scavenger",
	"created by runtime.gc",
	"signal.signal_recv",
	"sigterm.handler",
	"runtime_mcall",
	"(*http.Transport).persistConn", // idle keep-alive readers
	"http.(*persistConn)",
	"net/http.(*persistConn)",
	"net/http.(*Transport)",
	"os/signal.loop",
	"devsim.(*kernelTimer).run",
	"go.opencensus.io", // defensive: matches nothing in this repo
}

// LeakCheck snapshots the running goroutines and returns a function
// that, deferred, re-snapshots and fails the test if new goroutines
// survive a retry window. Servers wound down with Close/Stop schedule
// their final exits asynchronously, so the guard polls for up to two
// seconds before declaring a leak — long enough for any wg.Wait-joined
// shutdown, short enough to keep the suite fast when nothing leaks.
//
// Usage:
//
//	defer leakcheck.Guard(t)()
//
// at the top of an integration test, before the system under test is
// built, so everything the test starts is in scope.
func Guard(t TB) func() {
	before := goroutineStacks()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = leakedSince(before)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("leaked %d goroutine(s) after test:\n%s",
			len(leaked), strings.Join(leaked, "\n---\n"))
	}
}

// goroutineStacks captures every goroutine's stack as one string per
// goroutine, keyed for set-difference by their header-stripped bodies.
func goroutineStacks() map[string]bool {
	out := map[string]bool{}
	for _, g := range splitStacks() {
		out[stackKey(g)] = true
	}
	return out
}

// leakedSince returns the goroutines present now whose keys were not
// in the before snapshot and are not allowlisted, sorted for stable
// output.
func leakedSince(before map[string]bool) []string {
	var leaked []string
	for _, g := range splitStacks() {
		if before[stackKey(g)] {
			continue
		}
		if allowlisted(g) {
			continue
		}
		leaked = append(leaked, g)
	}
	sort.Strings(leaked)
	return leaked
}

// splitStacks dumps all goroutines and splits the dump into one entry
// per goroutine, excluding the caller's own.
func splitStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		g = strings.TrimSpace(g)
		if g == "" {
			continue
		}
		// Skip the goroutine running the check itself.
		if strings.Contains(g, "leakcheck.splitStacks") || strings.Contains(g, "leakcheck.Guard") {
			continue
		}
		out = append(out, g)
	}
	return out
}

// stackKey reduces a goroutine dump to its creation-site identity: the
// "goroutine N [state]" header (which changes run to run) is dropped
// and the remaining frames identify what the goroutine is. Two
// goroutines parked at the same place collapse to one key, which is
// the right granularity: the guard asks "did a *kind* of goroutine
// appear that wasn't running before", not "did the count change" —
// worker-pool sizes legitimately vary.
func stackKey(g string) string {
	i := strings.Index(g, "\n")
	if i < 0 {
		return g
	}
	body := g[i+1:]
	// Argument values in frames (0xc000...) differ per instance; strip
	// hex literals so identical code paths compare equal.
	var b strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if j := strings.Index(line, "(0x"); j >= 0 {
			line = line[:j]
		}
		if j := strings.Index(line, " +0x"); j >= 0 {
			line = line[:j]
		}
		fmt.Fprintln(&b, line)
	}
	return b.String()
}

func allowlisted(g string) bool {
	for _, frag := range leakAllowlist {
		if strings.Contains(g, frag) {
			return true
		}
	}
	return false
}

// Slab guards the other thing a test can leak now that segment payloads
// live outside the Go heap: slab memory, which no collector gives back.
// It reads the slab's ledger (tiers.SlabStats.InUseBytes) and returns a
// function that, deferred, fails the test unless the ledger is back
// where it was: every buffer drawn since has reached its SlabPut or its
// last Buf.Release. Connections and handlers wind down asynchronously,
// so the check polls like Guard does; it never runs the collector — a
// store the test dropped uncleared is the test's to collect.
//
// Usage:
//
//	defer leakcheck.Slab(t)()
//
// before the system under test is built and after Guard, so the ledger
// is read once everything has stopped.
func Slab(t TB) func() {
	settleFinalizers()
	before := tiers.ReadSlabStats().InUseBytes
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			got := tiers.ReadSlabStats().InUseBytes
			if got == before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("slab ledger: %d bytes in use after the test, %d before it (%+d)", got, before, got-before)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// settleFinalizers lets the stores earlier tests dropped give their
// payloads back before the ledger is read: finalizers run in queue
// order, so once a sentinel of a second collection has run, so has
// everything the first collection found unreachable.
func settleFinalizers() {
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		runtime.SetFinalizer(&struct{ c chan struct{} }{done}, func(s *struct{ c chan struct{} }) { close(s.c) })
		for ran := false; !ran; {
			runtime.GC()
			select {
			case <-done:
				ran = true
			case <-time.After(time.Millisecond):
			}
		}
	}
}
