package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// barrierLimit bounds every Flush, Stop and Drain the benchmark calls.
const barrierLimit = 10 * time.Second

// barriers runs the system's unbounded barriers (Node.Flush, Cluster.Stop,
// Mover.Drain) under a deadline. ROADMAP item 1's mover leak parks such a
// call forever; the benchmark reports it and goes on with what it has
// measured instead of waiting.
type barriers struct {
	out      string // directory for goroutine dumps; "" writes none
	timeouts atomic.Int64
	tr       *tracer
}

// bounded runs fn on a helper goroutine and waits at most limit for it. It
// returns false when fn was still running at the deadline: the helper is
// then abandoned (the process exits soon after), a goroutine dump is
// written and the expiry is counted in mover.barrier_timeouts.
func (b *barriers) bounded(name string, limit time.Duration, fn func()) bool {
	start := time.Now()
	done := make(chan struct{})
	//lint:allow goleak the helper is joined through done; on expiry it is abandoned on purpose, which is the point of a bounded barrier
	go func() {
		defer close(done)
		fn()
	}()
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-done:
		b.tr.add(name, start, time.Now(), -1, -1)
		return true
	case <-t.C:
		b.timeouts.Add(1)
		b.tr.add(name+" (expired)", start, time.Now(), -1, -1)
		b.dump(name)
		return false
	}
}

// dump writes every goroutine's stack to the output directory.
func (b *barriers) dump(name string) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	fmt.Fprintf(os.Stderr, "benchmark: barrier %q still blocked after its deadline\n", name)
	if b.out == "" {
		return
	}
	path := filepath.Join(b.out, fmt.Sprintf("goroutines_%s_%d.txt", name, b.timeouts.Load()))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: goroutine dump: %v\n", err)
	}
}
