package comm

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"hfetch/internal/harness/leakcheck"
)

// TestLedgerBrokenStreams: a frame's head and body are read into slab
// buffers, which only this package gives back. Whatever a peer does to
// the stream — cuts a frame short, announces more than the bound, closes
// mid-body, answers a request nobody is waiting for — both ends return
// every buffer they drew.
func TestLedgerBrokenStreams(t *testing.T) {
	defer leakcheck.Slab(t)()

	// The serving side, fed by a raw client.
	srv, err := ListenTCP("127.0.0.1:0", echoMux())
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 64<<10)
	for name, wire := range map[string][]byte{
		"head cut short":    rawFrame(WireVersion, kindRequest, 1, "echo", "", uint32(len(big)), 0, big[:len(big)/2]),
		"body cut short":    rawFrame(WireVersion, kindRequest, 2, "echo", "", 16, uint32(len(big)), big[:16+len(big)/2]),
		"oversize head":     rawFrame(WireVersion, kindRequest, 3, "echo", "", MaxHead+1, 0, big),
		"oversize body":     rawFrame(WireVersion, kindRequest, 4, "echo", "", 0, MaxBody+1, big),
		"a response":        rawFrame(WireVersion, kindResponse, 5, "", "", 8, 4096, big[:8+4096]),
		"unknown type":      rawFrame(WireVersion, kindRequest, 6, "nobody", "", 8, 4096, big[:8+4096]),
		"oneway, then gone": rawFrame(WireVersion, kindOneway, 0, "echo", "", 4096, 4096, big[:8192]),
	} {
		c, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.Write(wire)
		c.Close()
	}
	srv.Close() // waits for every connection's reader and handlers

	// The calling side, answered by a raw server: each connection gets one
	// scripted answer to its first request, then the socket closes. A
	// response head of up to 4 KiB is a slab buffer on this side too.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	answers := [][]byte{
		rawFrame(WireVersion, kindResponse, 1, "", "", 0, uint32(len(big)), big[:len(big)/2]), // closes mid-body
		rawFrame(WireVersion, kindResponse, 1, "", "", 0, MaxBody+1, big),                     // beyond the bound
		rawFrame(WireVersion, kindResponse, 1, "", "boom", 0, 4096, big[:4096]),               // an error with a body
		rawFrame(WireVersion, kindResponse, 99, "", "", 0, 4096, big[:4096]),                  // for a request never made
		rawFrame(WireVersion, kindRequest, 1, "echo", "", 0, 4096, big[:4096]),                // not a response at all
		rawFrame(WireVersion, kindResponse, 1, "", "", 4096, 0, big[:2048]),                   // closes mid-head
		rawFrame(WireVersion, kindResponse, 1, "", "boom", 16, 4096, big[:16+4096]),           // an error with a head
		rawFrame(WireVersion, kindResponse, 99, "", "", 4096, 16, big[:4096+16]),              // a head for a request never made
	}
	go func() {
		for _, ans := range answers {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if f, err := (&frameReader{r: c}).read(); err == nil {
				f.recycle()
				c.Write(ans)
			}
			c.Close()
		}
	}()
	for i := range answers {
		p, err := DialTCPOpts(ln.Addr().String(), PeerOptions{RequestTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := Call(p, "echo", []byte("hi")); err == nil {
			rep.Release()
			t.Errorf("answer %d: the call succeeded", i)
		}
		p.Close()
	}
}

// claimedConn is a client connection whose request write fails, but only
// once the read loop has taken a response for that very request: the
// race in which a failed send finds its entry already claimed.
type claimedConn struct {
	net.Conn          // the client's end of a pipe, read by the read loop
	far      net.Conn // the other end, on which the response is sent
	p        *tcpPeer
	body     []byte
}

func (c *claimedConn) Write(b []byte) (int, error) {
	id := binary.BigEndian.Uint64(b[4:])
	go c.far.Write(rawFrame(WireVersion, kindResponse, id, "", "", 0, uint32(len(c.body)), c.body))
	for claimed := false; !claimed; time.Sleep(time.Millisecond) {
		c.p.mu.Lock()
		_, waiting := c.p.pending[id]
		c.p.mu.Unlock()
		claimed = !waiting
	}
	return 0, errors.New("broken pipe")
}

// TestLedgerSendFailsAfterResponse: the read loop delivered a response
// with a 64 KiB slab body to a call whose send then failed. The call
// takes that delivery instead of dropping it, so the body goes back to
// the slab and the call record goes back empty.
func TestLedgerSendFailsAfterResponse(t *testing.T) {
	defer leakcheck.Slab(t)()
	near, far := net.Pipe()
	defer far.Close()
	c := &claimedConn{Conn: near, far: far, body: make([]byte, 64<<10)}
	c.p = &tcpPeer{conn: c, w: &frameWriter{w: c}, reqTimeout: 5 * time.Second, pending: make(map[uint64]*callRec)}
	go c.p.readLoop()
	defer c.p.Close()
	if _, err := c.p.Call("echo", []byte("hi")); err == nil || !strings.Contains(err.Error(), "send") {
		t.Fatalf("err = %v, want the failed send", err)
	}
	c.p.mu.Lock()
	free := len(c.p.free)
	c.p.mu.Unlock()
	if free != 1 {
		t.Fatalf("%d call records pooled after the failed send, want 1", free)
	}
}
