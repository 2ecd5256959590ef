package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfetch/internal/tiers"
)

// rawFrame builds a frame byte-for-byte, with no validation, so tests
// can write headers the real writer refuses to produce.
func rawFrame(version, kind uint8, id uint64, typ, errMsg string, headLen, bodyLen uint32, payload []byte) []byte {
	b := []byte{frameMagic0, frameMagic1, version, kind}
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint16(b, uint16(len(typ)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(errMsg)))
	b = binary.BigEndian.AppendUint32(b, headLen)
	b = binary.BigEndian.AppendUint32(b, bodyLen)
	b = append(b, typ...)
	b = append(b, errMsg...)
	return append(b, payload...)
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name       string
		kind       uint8
		id         uint64
		typ, err   string
		head, body []byte
	}{
		{"request head only", kindRequest, 7, "srv.read", "", []byte("head"), nil},
		{"response head and body", kindResponse, 1 << 40, "", "", []byte{1}, bytes.Repeat([]byte{0xAB}, 70000)},
		{"error response", kindResponse, 9, "", "boom", nil, nil},
		{"one-way empty", kindOneway, 0, "cluster.inval", "", nil, nil},
	}
	var wire bytes.Buffer
	w := &frameWriter{w: &wire}
	for _, c := range cases {
		if err := w.write(c.kind, c.id, c.typ, c.err, c.head, c.body); err != nil {
			t.Fatalf("%s: write: %v", c.name, err)
		}
	}
	r := &frameReader{r: &wire}
	for _, c := range cases {
		f, err := r.read()
		if err != nil {
			t.Fatalf("%s: read: %v", c.name, err)
		}
		if f.kind != c.kind || f.id != c.id || string(f.typ) != c.typ || f.errMsg != c.err ||
			!bytes.Equal(f.head, c.head) || !bytes.Equal(f.body, c.body) {
			t.Fatalf("%s: frame did not round-trip: %+v", c.name, f.frameHeader)
		}
		f.recycle()
	}
	if _, err := r.read(); err != io.EOF {
		t.Fatalf("end of stream: err = %v, want io.EOF", err)
	}
}

// TestFrameReaderRejects covers every header the reader must refuse —
// before it allocates anything for the frame — and every truncation.
func TestFrameReaderRejects(t *testing.T) {
	good := rawFrame(WireVersion, kindRequest, 1, "echo", "", 4, 2, []byte("headbo"))
	cases := []struct {
		name string
		wire []byte
		want error
	}{
		{"garbage", []byte("GET / HTTP/1.1\r\nHost: example\r\n\r\n"), errBadMagic},
		{"old gob stream", append([]byte{0x3f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x08}, make([]byte, 32)...), errBadMagic},
		{"bad kind", rawFrame(WireVersion, 3, 1, "", "", 0, 0, nil), errBadFrame},
		{"oversize head", rawFrame(WireVersion, kindRequest, 1, "x", "", MaxHead+1, 0, nil), errBadFrame},
		{"oversize body", rawFrame(WireVersion, kindResponse, 1, "", "", 0, MaxBody+1, nil), errBadFrame},
		{"oversize type", rawFrame(WireVersion, kindRequest, 1, strings.Repeat("t", maxTypeLen+1), "", 0, 0, nil), errBadFrame},
		{"oversize error", rawFrame(WireVersion, kindResponse, 1, "", strings.Repeat("e", maxErrLen+1), 0, 0, nil), errBadFrame},
		{"truncated header", good[:frameHeaderLen-5], io.ErrUnexpectedEOF},
		{"truncated type", good[:frameHeaderLen+2], io.ErrUnexpectedEOF},
		{"truncated head", good[:frameHeaderLen+4+2], io.ErrUnexpectedEOF},
		{"truncated body", good[:len(good)-1], io.ErrUnexpectedEOF},
	}
	for _, c := range cases {
		before := tiers.ReadSlabStats()
		r := &frameReader{r: bytes.NewReader(c.wire), slabHead: true}
		_, err := r.read()
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		after := tiers.ReadSlabStats()
		if c.want != io.ErrUnexpectedEOF && after.Gets != before.Gets {
			t.Errorf("%s: a buffer was drawn before the header was refused", c.name)
		}
		if after.InUseBytes != before.InUseBytes {
			t.Errorf("%s: the refused frame kept %d slab bytes", c.name, after.InUseBytes-before.InUseBytes)
		}
	}

	// Version 2 is the wire before a dhm apply answered in its op's bytes
	// (such a peer would parse an answer as a value), version 3 the one
	// before the heartbeat's binary head, version 4 the one whose heartbeat
	// carried link-health rows: all are refused like any other.
	for _, v := range []byte{WireVersion + 1, 4, 3, 2, 1} {
		var ve *versionError
		r := &frameReader{r: bytes.NewReader(rawFrame(v, kindRequest, 42, "x", "", 0, 0, nil))}
		if _, err := r.read(); !errors.As(err, &ve) || ve.got != v || ve.id != 42 {
			t.Fatalf("version %d: err = %v, want a versionError for id 42", v, err)
		}
	}
}

// TestTCPServerRefusesForeignStreams checks the serving side's half of
// the bound: garbage closes the connection, and a frame of another wire
// version is answered with a refusal naming both versions, then closed.
func TestTCPServerRefusesForeignStreams(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dial := func() net.Conn {
		c, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		return c
	}

	c := dial()
	c.Write(bytes.Repeat([]byte("not a frame "), 4))
	// EOF or a reset (the server closed with our bytes unread): either
	// way the connection is gone and nothing was answered.
	if n, err := c.Read(make([]byte, 64)); err == nil {
		t.Fatalf("garbage: read %d bytes back, want the connection closed", n)
	}
	c.Close()

	c = dial()
	defer c.Close()
	c.Write(rawFrame(WireVersion+1, kindRequest, 5, "echo", "", 2, 0, []byte("hi")))
	f, err := (&frameReader{r: c}).read()
	if err != nil {
		t.Fatalf("version refusal: %v", err)
	}
	if f.kind != kindResponse || f.id != 5 || !strings.Contains(f.errMsg, "wire version") {
		t.Fatalf("version refusal: got kind %d id %d err %q", f.kind, f.id, f.errMsg)
	}
	if n, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatalf("after the refusal: read %d more bytes, want the connection closed", n)
	}
}

// TestTCPServerRefusesVersion2Peer: version 2 answered a dhm apply with
// the value; this node answers with its op's bytes, which such a peer
// would parse as one. Version 3 gob-encoded the heartbeat this node
// reads as a binary head, and version 4 appended link-health rows to
// it. Each peer's first frame gets the refusal every other version gets,
// naming both.
func TestTCPServerRefusesVersion2Peer(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, c := range []struct {
		version byte
		typ     string
	}{{2, "dhm.stats.apply"}, {3, "cluster.hb"}, {4, "cluster.hb"}} {
		conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		conn.Write(rawFrame(c.version, kindRequest, 9, c.typ, "", 2, 0, []byte("hi")))
		f, err := (&frameReader{r: conn}).read()
		conn.Close()
		if err != nil {
			t.Fatalf("version %d refusal: %v", c.version, err)
		}
		want := fmt.Sprintf("comm: peer speaks wire version %d, this node speaks %d", c.version, WireVersion)
		if f.kind != kindResponse || f.id != 9 || f.errMsg != want {
			t.Fatalf("got kind %d id %d err %q, want the refusal %q", f.kind, f.id, f.errMsg, want)
		}
	}
}

// TestTCPClientRefusesOtherVersion: a server on another wire version
// fails the client's pending request with an error that says so.
func TestTCPClientRefusesOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.ReadFull(c, make([]byte, frameHeaderLen))
		c.Write(rawFrame(WireVersion+1, kindResponse, 1, "", "", 0, 0, nil))
		time.Sleep(200 * time.Millisecond)
	}()
	p, err := DialTCPOpts(ln.Addr().String(), PeerOptions{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, err = p.Request("echo", nil)
	if err == nil || !strings.Contains(err.Error(), "wire version") || IsRemote(err) {
		t.Fatalf("err = %v, want a local wire-version refusal", err)
	}
}

// failConn is a net.Conn whose writes fail; it records Close.
type failConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *failConn) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }
func (c *failConn) Close() error              { c.closed.Store(true); return nil }

// TestFailedResponseWriteClosesConn: a response that cannot be written
// closes the connection (so the client fails its pending requests now,
// not at their timeout) and still releases the reply.
func TestFailedResponseWriteClosesConn(t *testing.T) {
	conn := &failConn{}
	var released releaseCounter
	h := func([]byte) (Reply, error) {
		return Reply{Head: []byte{1}, Body: []byte("payload"), Owner: &released}, nil
	}
	serveFrame(conn, &frameWriter{w: conn}, job{f: frame{frameHeader: frameHeader{kind: kindRequest, id: 1}}, h: h})
	if !conn.closed.Load() {
		t.Fatal("connection left open after a failed response write")
	}
	if released.Load() != 1 {
		t.Fatal("reply not released after a failed response write")
	}
}

// releaseCounter is a reply Owner that counts its releases.
type releaseCounter struct{ atomic.Int64 }

func (c *releaseCounter) Release() { c.Add(1) }

// bodyMux serves "blob": a reply whose body is the shared payload by
// reference and whose Owner counts releases.
func bodyMux(payload []byte, done *releaseCounter, delay time.Duration) *Mux {
	mux := echoMux()
	mux.RegisterReply("blob", func(head []byte) (Reply, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		return Reply{Head: []byte{1}, Body: payload, Owner: done}, nil
	})
	return mux
}

func TestTCPCallCarriesBodyByReference(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 64<<10)
	var done releaseCounter
	srv, err := ListenTCP("127.0.0.1:0", bodyMux(payload, &done, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	rep, err := Call(p, "blob", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Head, []byte{1}) || !bytes.Equal(rep.Body, payload) {
		t.Fatalf("reply: head %v, body %d bytes", rep.Head, len(rep.Body))
	}
	// The pin drops right after the frame is written, which may be a
	// moment after the client has it.
	for deadline := time.Now().Add(5 * time.Second); done.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("serving side released its pin %d times after the response was written, want 1", done.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// The head is borrowed like the body: Release returns both.
	puts := tiers.ReadSlabStats().Puts
	rep.Release()
	if got := tiers.ReadSlabStats().Puts; got != puts+2 {
		t.Fatalf("Release returned %d buffers to the slab, want 2", got-puts)
	}

	// The plain shape sees the same handler's head; the body is dropped
	// and its buffer recycled, not leaked.
	puts = tiers.ReadSlabStats().Puts
	head, err := p.Request("blob", nil)
	if err != nil || !bytes.Equal(head, []byte{1}) {
		t.Fatalf("plain Request: head %v, err %v", head, err)
	}
	if got := tiers.ReadSlabStats().Puts; got <= puts {
		t.Fatal("plain Request leaked the response body")
	}
	// That head is the caller's own: the next reply, read into the slab
	// buffer the first one's head was returned to, leaves it as it was.
	if _, err := p.Request("echo", []byte{2}); err != nil || !bytes.Equal(head, []byte{1}) {
		t.Fatalf("plain Request's head changed under a later reply to %v (err %v)", head, err)
	}
}

// TestInprocCallHonoursRelease: in process the body is the handler's own
// slice, and the handler's pin drops only when the caller releases.
func TestInprocCallHonoursRelease(t *testing.T) {
	payload := []byte("resident bytes")
	var done releaseCounter
	net := NewInprocNetwork(nil)
	net.Join("n0", bodyMux(payload, &done, 0))
	rep, err := Call(net.Dial("n0"), "blob", nil)
	if err != nil {
		t.Fatal(err)
	}
	if &rep.Body[0] != &payload[0] {
		t.Fatal("in-process body was copied, want it by reference")
	}
	if done.Load() != 0 {
		t.Fatal("pin dropped before the caller released")
	}
	rep.Release()
	if done.Load() != 1 {
		t.Fatalf("pin dropped %d times after Release, want 1", done.Load())
	}
	if _, err := net.Dial("n0").Request("blob", nil); err != nil || done.Load() != 2 {
		t.Fatalf("plain Request over a body handler: err %v, releases %d (want 2)", err, done.Load())
	}
}

// TestLateResponseBodyReturnsToSlab: a response that arrives after its
// request timed out is dropped and its body recycled.
func TestLateResponseBodyReturnsToSlab(t *testing.T) {
	var done releaseCounter
	srv, err := ListenTCP("127.0.0.1:0", bodyMux(make([]byte, 8<<10), &done, 150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := DialTCPOpts(srv.Addr(), PeerOptions{RequestTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	before := tiers.ReadSlabStats()
	if _, err := Call(p, "blob", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := tiers.ReadSlabStats()
		// The late body was drawn from the slab and must go back.
		if s.Gets > before.Gets && s.Gets-before.Gets == s.Puts-before.Puts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late response body not recycled: gets +%d, puts +%d",
				s.Gets-before.Gets, s.Puts-before.Puts)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := p.Request("echo", []byte("still alive")); err != nil {
		t.Fatalf("connection unusable after a late response: %v", err)
	}
}

// TestOversizeMessageRefusedLocally: a message that cannot be framed is
// an error for that call only; nothing is written and the connection
// keeps working. An oversize response comes back as a remote error.
func TestOversizeMessageRefusedLocally(t *testing.T) {
	mux := echoMux()
	mux.RegisterReply("huge", func([]byte) (Reply, error) {
		return Reply{Body: make([]byte, MaxBody+1)}, nil
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

	big := make([]byte, MaxHead+1)
	if _, err := p.Request("echo", big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize request: err = %v, want ErrFrameTooLarge", err)
	}
	if err := p.Notify("echo", big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize notify: err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := Call(p, "huge", nil); !IsRemote(err) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize response: err = %v, want a remote frame-bound error", err)
	}
	if resp, err := p.Request("echo", []byte("ok")); err != nil || string(resp) != "ok" {
		t.Fatalf("connection unusable after refusals: %q, %v", resp, err)
	}
}

// TestTCPConcurrentCallsKeepBodiesApart drives many body-carrying calls
// over one connection; run under -race it also checks the framer's
// shared scratch is never touched outside its lock.
func TestTCPConcurrentCallsKeepBodiesApart(t *testing.T) {
	mux := NewMux()
	mux.RegisterReply("fill", func(head []byte) (Reply, error) {
		return Reply{Head: []byte{head[0]}, Body: bytes.Repeat(head[:1], 16<<10)}, nil
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

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b := byte(g*50 + i)
				rep, err := Call(p, "fill", []byte{b})
				if err != nil {
					t.Error(err)
					return
				}
				if rep.Head[0] != b || len(rep.Body) != 16<<10 || rep.Body[0] != b || rep.Body[len(rep.Body)-1] != b {
					t.Errorf("call %d got another call's reply", b)
				}
				rep.Release()
			}
		}(g)
	}
	wg.Wait()
}

// FuzzFrameReader feeds arbitrary bytes to the frame reader: it must
// never panic, never read past a declared length, and refuse malformed
// input with an error.
func FuzzFrameReader(f *testing.F) {
	f.Add(rawFrame(WireVersion, kindRequest, 1, "echo", "", 4, 2, []byte("headbo")))
	f.Add(rawFrame(WireVersion, kindResponse, 2, "", "boom", 0, 0, nil))
	f.Add(rawFrame(WireVersion+1, kindRequest, 3, "x", "", 0, 0, nil))
	f.Add(rawFrame(WireVersion, kindRequest, 1, "x", "", MaxHead+1, 0, nil))
	f.Add([]byte("HF"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		inUse := tiers.ReadSlabStats().InUseBytes
		r := &frameReader{r: bytes.NewReader(data), slabHead: true}
		consumed := int64(0)
		for {
			fr, err := r.read()
			if err != nil {
				// However the stream ended, the reader kept nothing.
				if got := tiers.ReadSlabStats().InUseBytes; got != inUse {
					t.Fatalf("reader kept %d slab bytes after %v", got-inUse, err)
				}
				return
			}
			consumed += fr.size()
			if consumed > int64(len(data)) {
				t.Fatalf("frames claim %d bytes of a %d-byte stream", consumed, len(data))
			}
			if len(fr.head) != fr.headLen || len(fr.body) != fr.bodyLen || len(fr.typ) != fr.typeLen {
				t.Fatalf("frame parts disagree with the header: %+v", fr.frameHeader)
			}
			fr.recycle()
		}
	})
}

var benchSink []byte

// BenchmarkTCPRoundTrip64K is the per-layer "wire encode" figure for
// comm: one 64 KiB plain echo over TCP loopback, both ends in process.
// It allocates once per op: the 64 KiB response head Request hands its
// caller. The call record, the serving worker and the request's slab
// buffers are reused.
func BenchmarkTCPRoundTrip64K(b *testing.B) {
	srv, err := ListenTCP("127.0.0.1:0", echoMux())
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	p, err := DialTCP(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := p.Request("echo", payload)
		if err != nil || len(resp) != len(payload) {
			b.Fatalf("round trip: %d bytes, %v", len(resp), err)
		}
		benchSink = resp
	}
}
