package comm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func echoMux() *Mux {
	m := NewMux()
	m.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	m.Register("fail", func(p []byte) ([]byte, error) { return nil, errors.New("boom") })
	return m
}

func TestMuxDispatch(t *testing.T) {
	m := echoMux()
	resp, err := m.Dispatch("echo", []byte("hi"))
	if err != nil || string(resp) != "hi" {
		t.Fatalf("Dispatch = %q %v", resp, err)
	}
	if _, err := m.Dispatch("nope", nil); err == nil {
		t.Fatal("unknown type must error")
	}
}

func TestInprocRequest(t *testing.T) {
	net := NewInprocNetwork(nil)
	net.Join("n1", echoMux())
	p := net.Dial("n1")
	defer p.Close()
	resp, err := p.Request("echo", []byte("ping"))
	if err != nil || string(resp) != "ping" {
		t.Fatalf("Request = %q %v", resp, err)
	}
}

func TestInprocRemoteError(t *testing.T) {
	net := NewInprocNetwork(nil)
	net.Join("n1", echoMux())
	p := net.Dial("n1")
	_, err := p.Request("fail", nil)
	if err == nil || !IsRemote(err) {
		t.Fatalf("err = %v, want remote error", err)
	}
}

func TestInprocUnknownNode(t *testing.T) {
	net := NewInprocNetwork(nil)
	p := net.Dial("ghost")
	if _, err := p.Request("echo", nil); err == nil {
		t.Fatal("request to unjoined node must fail")
	}
	// Node joins later: requests start succeeding.
	net.Join("ghost", echoMux())
	if _, err := p.Request("echo", nil); err != nil {
		t.Fatalf("request after join failed: %v", err)
	}
}

func TestInprocClosedPeer(t *testing.T) {
	net := NewInprocNetwork(nil)
	net.Join("n1", echoMux())
	p := net.Dial("n1")
	p.Close()
	if _, err := p.Request("echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestInprocNotify(t *testing.T) {
	net := NewInprocNetwork(nil)
	got := make(chan []byte, 1)
	m := NewMux()
	m.Register("note", func(p []byte) ([]byte, error) { got <- p; return nil, nil })
	net.Join("n1", m)
	p := net.Dial("n1")
	if err := p.Notify("note", []byte("async")); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-got:
		if string(b) != "async" {
			t.Fatalf("payload = %q", b)
		}
	case <-time.After(time.Second):
		t.Fatal("notification not delivered")
	}
}

func TestInprocLeave(t *testing.T) {
	net := NewInprocNetwork(nil)
	net.Join("n1", echoMux())
	if len(net.Nodes()) != 1 {
		t.Fatal("Nodes wrong")
	}
	net.Leave("n1")
	p := net.Dial("n1")
	if _, err := p.Request("echo", nil); err == nil {
		t.Fatal("request after leave must fail")
	}
}

func TestTCPRequestResponse(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	resp, err := p.Request("echo", []byte("over tcp"))
	if err != nil || string(resp) != "over tcp" {
		t.Fatalf("Request = %q %v", resp, err)
	}
}

func TestTCPRemoteError(t *testing.T) {
	srv, _ := ListenTCP("127.0.0.1:0", echoMux())
	defer srv.Close()
	p, _ := DialTCP(srv.Addr())
	defer p.Close()
	_, err := p.Request("fail", nil)
	if err == nil || !IsRemote(err) {
		t.Fatalf("err = %v, want remote error", err)
	}
	_, err = p.Request("unknown", nil)
	if err == nil {
		t.Fatal("unknown type must propagate error")
	}
}

func TestTCPConcurrentRequests(t *testing.T) {
	m := NewMux()
	m.Register("double", func(p []byte) ([]byte, error) {
		time.Sleep(time.Millisecond) // force interleaving
		return append(p, p...), nil
	})
	srv, _ := ListenTCP("127.0.0.1:0", m)
	defer srv.Close()
	p, _ := DialTCP(srv.Addr())
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := []byte(fmt.Sprintf("m%02d", i))
			out, err := p.Request("double", in)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(out, append(in, in...)) {
				errs <- fmt.Errorf("mismatch: %q -> %q", in, out)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPNotify(t *testing.T) {
	got := make(chan []byte, 1)
	m := NewMux()
	// A handler that keeps its payload past its return copies it: the
	// transport recycles the request buffer afterwards.
	m.Register("note", func(p []byte) ([]byte, error) { got <- append([]byte(nil), p...); return nil, nil })
	srv, _ := ListenTCP("127.0.0.1:0", m)
	defer srv.Close()
	p, _ := DialTCP(srv.Addr())
	defer p.Close()
	if err := p.Notify("note", []byte("fire-and-forget")); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-got:
		if string(b) != "fire-and-forget" {
			t.Fatalf("payload = %q", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("notification not delivered")
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	block := make(chan struct{})
	m := NewMux()
	m.Register("hang", func(p []byte) ([]byte, error) { <-block; return nil, nil })
	srv, _ := ListenTCP("127.0.0.1:0", m)
	p, _ := DialTCP(srv.Addr())
	defer p.Close()
	done := make(chan error, 1)
	go func() {
		_, err := p.Request("hang", nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(block) // let the handler finish so server Close can drain
	srv.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("client request did not complete after server close")
	}
}

func TestTCPPeerCloseFailsPending(t *testing.T) {
	m := NewMux()
	m.Register("hang", func(p []byte) ([]byte, error) {
		time.Sleep(5 * time.Second)
		return nil, nil
	})
	srv, _ := ListenTCP("127.0.0.1:0", m)
	defer srv.Close()
	p, _ := DialTCP(srv.Addr())
	done := make(chan error, 1)
	go func() {
		_, err := p.Request("hang", nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	p.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending request must fail on close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending request did not fail on peer close")
	}
	if _, err := p.Request("echo", nil); err == nil {
		t.Fatal("request on closed peer must fail")
	}
}

func TestTCPDialFailure(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Fatal("dialing a dead port must fail")
	}
}

func TestTCPLargePayload(t *testing.T) {
	srv, _ := ListenTCP("127.0.0.1:0", echoMux())
	defer srv.Close()
	p, _ := DialTCP(srv.Addr())
	defer p.Close()
	big := bytes.Repeat([]byte{0xAB}, 4<<20)
	resp, err := p.Request("echo", big)
	if err != nil || !bytes.Equal(resp, big) {
		t.Fatalf("large payload round-trip failed: %v, %d bytes", err, len(resp))
	}
}

func TestPing(t *testing.T) {
	m := NewMux()
	m.RegisterPing()
	srv, _ := ListenTCP("127.0.0.1:0", m)
	defer srv.Close()
	p, _ := DialTCP(srv.Addr())
	defer p.Close()
	if !Ping(p, []byte("probe")) {
		t.Fatal("ping must succeed against a live mux")
	}
	// A peer without the handler fails the probe.
	m2 := NewMux()
	srv2, _ := ListenTCP("127.0.0.1:0", m2)
	defer srv2.Close()
	p2, _ := DialTCP(srv2.Addr())
	defer p2.Close()
	if Ping(p2, []byte("probe")) {
		t.Fatal("ping must fail without the handler")
	}
	// And a dead peer fails.
	p.Close()
	if Ping(p, nil) {
		t.Fatal("ping on closed peer must fail")
	}
}
