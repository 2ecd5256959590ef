package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfetch/internal/harness/leakcheck"
	"hfetch/internal/tiers"
)

// TestCallRecordsSurviveTimeouts: call records and their timers are
// reused call after call, and every 7th request outlives its timeout, so
// late responses keep arriving for ids whose record is already serving
// another call. Every reply must still be its own request's, and every
// slab buffer drawn — response bodies on both ends, late ones included —
// must come back.
func TestCallRecordsSurviveTimeouts(t *testing.T) {
	defer leakcheck.Slab(t)()
	const (
		callers = 8
		calls   = 2000
		timeout = 5 * time.Millisecond
		bodyLen = 4 << 10
	)
	var served atomic.Int64
	mux := NewMux()
	// The reply echoes the request's 8-byte head and fills a slab body
	// with its low byte; the body's Buf is the reply's Owner.
	mux.RegisterReply("tag", func(head []byte) (Reply, error) {
		if served.Add(1)%7 == 0 {
			time.Sleep(2 * timeout)
		}
		b := tiers.NewBuf(tiers.SlabGet(bodyLen))
		body := b.Bytes()
		for i := range body {
			body[i] = head[7]
		}
		return Reply{Head: append([]byte(nil), head...), Body: body, Owner: b}, nil
	})
	srv, err := ListenTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := DialTCPOpts(srv.Addr(), PeerOptions{RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var timeouts, wrong atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var head [8]byte
			for i := 0; i < calls; i++ {
				binary.BigEndian.PutUint64(head[:], uint64(g)<<32|uint64(i))
				rep, err := Call(p, "tag", head[:])
				if errors.Is(err, ErrTimeout) {
					timeouts.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if string(rep.Head) != string(head[:]) || len(rep.Body) != bodyLen ||
					rep.Body[0] != head[7] || rep.Body[bodyLen-1] != head[7] {
					wrong.Add(1)
				}
				rep.Release()
			}
		}(g)
	}
	wg.Wait()
	t.Logf("%d calls, %d timed out", callers*calls, timeouts.Load())
	if wrong.Load() != 0 {
		t.Fatalf("%d replies were another request's", wrong.Load())
	}
	if timeouts.Load() == 0 {
		t.Fatal("no call timed out: the late-response path was not exercised")
	}
}

// TestServeConnDoesNotSerialize: a handler blocked on a channel holds
// its own worker only; a second request on the same connection is
// served by another.
func TestServeConnDoesNotSerialize(t *testing.T) {
	release := make(chan struct{})
	mux := echoMux()
	mux.Register("block", func(p []byte) ([]byte, error) {
		<-release
		return p, nil
	})
	srv, err := ListenTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	blocked := make(chan error, 1)
	go func() {
		_, err := p.Request("block", []byte("held"))
		blocked <- err
	}()
	echoed := make(chan error, 1)
	go func() {
		// The blocked request goes first on the wire nearly always; either
		// order must work.
		time.Sleep(10 * time.Millisecond)
		resp, err := p.Request("echo", []byte("through"))
		if err == nil && string(resp) != "through" {
			err = errors.New("echo answered " + string(resp))
		}
		echoed <- err
	}()
	select {
	case err := <-echoed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a request waited behind a blocked handler on its connection")
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked request: %v", err)
	}
}

// TestServeWorkersIdleOut: a burst of concurrent requests on one
// connection starts a worker each; once the burst is over they exit
// after serveIdle instead of staying parked, and the next request starts
// a worker again.
func TestServeWorkersIdleOut(t *testing.T) {
	defer func(d time.Duration) { serveIdle = d }(serveIdle)
	serveIdle = 20 * time.Millisecond
	const burst = 8
	var arrived sync.WaitGroup
	arrived.Add(burst)
	release := make(chan struct{})
	mux := echoMux()
	mux.Register("hold", func(p []byte) ([]byte, error) {
		arrived.Done()
		<-release
		return p, nil
	})
	srv, err := ListenTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Request("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	// Only connection workers are counted: the process's other goroutines
	// (the runtime's, earlier tests' connections winding down) come and
	// go on their own schedule.
	workers := func() int {
		buf := make([]byte, 64<<10)
		n := runtime.Stack(buf, true)
		for ; n == len(buf); n = runtime.Stack(buf, true) {
			buf = make([]byte, 2*len(buf))
		}
		return bytes.Count(buf[:n], []byte("comm.serveJobs("))
	}
	settled := func(want int) int {
		n := workers()
		for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = workers() {
			time.Sleep(5 * time.Millisecond)
		}
		return n
	}
	base := settled(0) // the warm-up's worker idles out, and any left by earlier tests

	var done sync.WaitGroup
	for i := 0; i < burst; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			if _, err := p.Request("hold", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	arrived.Wait() // every request holds its own worker
	// Not fatal: the held requests must still be released, or the
	// deferred Close waits on their handlers.
	if n := workers(); n < base+burst {
		t.Errorf("%d workers with %d requests held, want ≥ %d: workers were not started per busy request", n, burst, base+burst)
	}
	close(release)
	done.Wait()
	if n := settled(base); n > base {
		t.Fatalf("%d workers after the burst went idle, want %d: the burst's workers stayed parked", n, base)
	}
	if resp, err := p.Request("echo", []byte("again")); err != nil || string(resp) != "again" {
		t.Fatalf("a request after every worker idled out: %q, %v", resp, err)
	}
}
