package comm

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestRequestTimeout proves a hung handler no longer blocks a request
// forever: the peer's request deadline fires and returns ErrTimeout.
func TestRequestTimeout(t *testing.T) {
	mux := NewMux()
	release := make(chan struct{})
	mux.Register("hang", func(p []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	srv, err := ListenTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)

	peer, err := DialTCPOpts(srv.Addr(), PeerOptions{RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	start := time.Now()
	_, err = peer.Request("hang", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", elapsed)
	}
}

// TestRequestTimeoutLateResponseDropped checks that a response arriving
// after its request timed out is discarded and the connection stays
// usable for later requests.
func TestRequestTimeoutLateResponseDropped(t *testing.T) {
	mux := NewMux()
	var slow atomic.Bool
	slow.Store(true)
	mux.Register("echo", func(p []byte) ([]byte, error) {
		if slow.Load() {
			time.Sleep(150 * time.Millisecond)
		}
		return p, nil
	})
	srv, err := ListenTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	peer, err := DialTCPOpts(srv.Addr(), PeerOptions{RequestTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	if _, err := peer.Request("echo", []byte("a")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	slow.Store(false)
	time.Sleep(200 * time.Millisecond) // let the abandoned response land and be dropped
	resp, err := peer.Request("echo", []byte("b"))
	if err != nil {
		t.Fatalf("request after timeout: %v", err)
	}
	if string(resp) != "b" {
		t.Fatalf("got %q, want %q (late response must not satisfy a newer request)", resp, "b")
	}
}

// TestDialRetryBackoff dials an address that starts listening after the
// first attempt fails; bounded retry should connect.
func TestDialRetryBackoff(t *testing.T) {
	// Reserve an address, then close it so the first dial attempt fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	mux := NewMux()
	mux.RegisterPing()
	started := make(chan *TCPServer, 1)
	go func() {
		time.Sleep(60 * time.Millisecond)
		srv, err := ListenTCP(addr, mux)
		if err == nil {
			started <- srv
		}
	}()

	peer, err := DialTCPOpts(addr, PeerOptions{
		DialAttempts: 10,
		DialBackoff:  20 * time.Millisecond,
		DialTimeout:  time.Second,
	})
	if err != nil {
		t.Fatalf("dial with retry: %v", err)
	}
	defer peer.Close()
	if !Ping(peer, []byte("x")) {
		t.Fatal("ping through retried connection failed")
	}
	srv := <-started
	srv.Close()
}

// TestDialRetryExhausted verifies a bounded retry gives up.
func TestDialRetryExhausted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	_, err = DialTCPOpts(addr, PeerOptions{DialAttempts: 2, DialBackoff: 5 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
}

func TestHealthTracker(t *testing.T) {
	h := NewHealth(3)
	if !h.Healthy("n1") {
		t.Fatal("unknown peer must start healthy")
	}
	boom := errors.New("boom")
	h.Observe("n1", boom)
	h.Observe("n1", boom)
	if !h.Healthy("n1") {
		t.Fatal("2 consecutive failures under threshold 3 must stay healthy")
	}
	h.Observe("n1", boom)
	if h.Healthy("n1") {
		t.Fatal("3 consecutive failures must be unhealthy")
	}
	if got := h.Consecutive("n1"); got != 3 {
		t.Fatalf("Consecutive = %d, want 3", got)
	}
	// One success resets the streak.
	h.Observe("n1", nil)
	if !h.Healthy("n1") || h.Consecutive("n1") != 0 {
		t.Fatal("success must restore health")
	}
	h.Observe("n1", boom)
	h.Forget("n1")
	if h.Consecutive("n1") != 0 {
		t.Fatal("Forget did not drop the peer")
	}
}

func TestHealthNilSafe(t *testing.T) {
	var h *Health
	h.Observe("x", nil)
	if !h.Healthy("x") || h.Consecutive("x") != 0 {
		t.Fatal("nil tracker must be a healthy no-op")
	}
	h.Forget("x")
}
