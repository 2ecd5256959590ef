package dhm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hfetch/internal/comm"
)

// point is a value type with a registered codec, standing in for what
// auditor does with *Rec.
type point struct{ X, Y int64 }

const tagPoint = FirstValueTag + 100

func init() {
	RegisterValue(ValueCodec{
		Tag: tagPoint,
		Append: func(dst []byte, v any) ([]byte, bool) {
			p, ok := v.(*point)
			if !ok {
				return dst, false
			}
			dst = binary.BigEndian.AppendUint64(dst, uint64(p.X))
			return binary.BigEndian.AppendUint64(dst, uint64(p.Y)), true
		},
		Parse: func(b []byte) (any, error) {
			if len(b) != 16 {
				return nil, errors.New("point: want 16 bytes")
			}
			return &point{int64(binary.BigEndian.Uint64(b)), int64(binary.BigEndian.Uint64(b[8:]))}, nil
		},
	})
}

func valuesEqual(a, b any) bool {
	pa, ok := a.(*point)
	if !ok {
		return a == b
	}
	pb, ok := b.(*point)
	return ok && *pa == *pb
}

var valueCases = []any{
	"node1|ram", "", strings.Repeat("x", 300),
	int(0), int(-5), int(1 << 40),
	int64(42), int64(-1 << 62),
	uint64(0), uint64(1<<64 - 1),
	&point{3, -4},
}

func TestValueCodec(t *testing.T) {
	for _, want := range valueCases {
		enc, err := appendValue(nil, want)
		if err != nil {
			t.Fatalf("appendValue(%#v): %v", want, err)
		}
		got, err := parseValue(enc)
		if err != nil || !valuesEqual(got, want) {
			t.Fatalf("%#v round-tripped to %#v, err %v", want, got, err)
		}
		// Fixed-width and varint payloads refuse every truncation; a
		// string payload is "the rest", so only losing its tag is one.
		if _, isString := want.(string); !isString {
			for n := 0; n < len(enc); n++ {
				if _, err := parseValue(enc[:n]); err == nil {
					t.Fatalf("%#v truncated to %d of %d bytes parsed", want, n, len(enc))
				}
			}
		}
	}
	if _, err := parseValue(nil); err == nil {
		t.Fatal("an empty value parsed")
	}
	if _, err := parseValue([]byte{FirstValueTag + 99, 1, 2}); err == nil {
		t.Fatal("a value with an unregistered tag parsed")
	}
	for _, v := range []any{map[string]int64{"a": 1}, 3.5, []byte("raw"), struct{}{}, nil} {
		if _, err := appendValue(nil, v); err == nil {
			t.Fatalf("value %#v of an unregistered type encoded", v)
		}
	}
}

func TestReqCodec(t *testing.T) {
	type reqCase struct {
		key    Key
		op     string
		arg    []byte
		val    any
		hasVal bool
	}
	for _, c := range []reqCase{
		{key: Key{File: "/data/f", Index: 12}},
		{key: Key{File: "f", Index: 0}, op: "aud.access", arg: bytes.Repeat([]byte{9}, 16)},
		{key: StringKey("k"), val: "node0|nvme", hasVal: true},
		{key: Key{File: strings.Repeat("k", 200), Index: 1 << 40}, op: "o", arg: []byte{}, val: &point{1, 2}, hasVal: true},
		{key: Key{File: strings.Repeat("k", maxKeyFile)}},
		{},
	} {
		enc := appendReq(nil, c.key, c.op, c.arg)
		if c.hasVal {
			var err error
			if enc, err = appendValue(enc, c.val); err != nil {
				t.Fatal(err)
			}
		}
		got, err := parseReq(enc, c.hasVal)
		if err != nil || got.key != c.key || got.op != c.op || !bytes.Equal(got.arg, c.arg) {
			t.Fatalf("request %+v round-tripped to %+v, err %v", c, got, err)
		}
		if c.hasVal {
			v, err := parseValue(got.val)
			if err != nil || !valuesEqual(v, c.val) {
				t.Fatalf("request value %#v round-tripped to %#v, err %v", c.val, v, err)
			}
		} else if len(got.val) != 0 {
			t.Fatalf("request without a value decoded %d value bytes", len(got.val))
		}
		// The file, the index, the op and the arg refuse every truncation.
		fields := len(enc) - len(got.val)
		for n := 0; n < fields; n++ {
			if _, err := parseReq(enc[:n], true); err == nil {
				t.Fatalf("request %+v truncated to %d of %d bytes parsed", c, n, len(enc))
			}
		}
		// Only a put may carry bytes after the arg.
		if _, err := parseReq(append(enc[:fields:fields], 1), false); err == nil {
			t.Fatalf("request %+v with a trailing byte parsed as a value-less request", c)
		}
	}
	long := appendReq(nil, Key{File: strings.Repeat("k", maxKeyFile+1)}, "", nil)
	if _, err := parseReq(long, false); err == nil {
		t.Fatal("a key file over maxKeyFile parsed")
	}
}

func TestRespCodec(t *testing.T) {
	for _, want := range valueCases {
		enc, err := appendResp(nil, true, want)
		if err != nil {
			t.Fatal(err)
		}
		got, found, err := parseResp(enc)
		if err != nil || !found || !valuesEqual(got, want) {
			t.Fatalf("response %#v round-tripped to %#v, found %v, err %v", want, got, found, err)
		}
	}
	enc, _ := appendResp(nil, false, nil)
	if v, found, err := parseResp(enc); err != nil || found || v != nil {
		t.Fatalf("not-found response decoded as %v, %v, %v", v, found, err)
	}
	for _, bad := range [][]byte{nil, {2}, {0, 0}, {1}, {1, tagInt64}, {1, tagUint64, 0x80}} {
		if _, _, err := parseResp(bad); err == nil {
			t.Fatalf("malformed response %x parsed", bad)
		}
	}
}

// TestRemotePutUnregisteredTypeFails: a value type with no wire codec
// put to a key another node owns is an error — there is no reflective
// fallback — while the same put to a locally owned key never touches a
// codec.
func TestRemotePutUnregisteredTypeFails(t *testing.T) {
	maps := cluster(t, 2)
	var localKey, remoteKey string
	for i := 0; localKey == "" || remoteKey == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		if maps[0].Owner(StringKey(k)) == "n0" {
			localKey = k
		} else {
			remoteKey = k
		}
	}
	val := map[string]int64{"a": 1}
	if err := maps[0].Put(localKey, val); err != nil {
		t.Fatalf("local put of a plain Go value: %v", err)
	}
	err := maps[0].Put(remoteKey, val)
	if err == nil || !strings.Contains(err.Error(), "no wire codec") {
		t.Fatalf("remote put of an unregistered type: err = %v, want a codec error", err)
	}
	if _, ok, _ := maps[1].Get(remoteKey); ok {
		t.Fatal("the refused value reached its owner")
	}
	// A registered type crosses, and comes back equal.
	if err := maps[0].Put(remoteKey, &point{7, 8}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := maps[0].Get(remoteKey)
	if err != nil || !ok || !valuesEqual(v, &point{7, 8}) {
		t.Fatalf("registered value came back as %#v, %v, %v", v, ok, err)
	}
	// A value the owner cannot encode surfaces as the call's error too.
	maps[1].Put(remoteKey, val) //nolint:errcheck // local on n1
	if _, _, err := maps[0].Get(remoteKey); err == nil || !comm.IsRemote(err) {
		t.Fatalf("get of an unencodable value: err = %v, want a remote error", err)
	}
}

type tcpDialer struct {
	t     testing.TB
	addrs map[string]string
}

func (d tcpDialer) Dial(node string) comm.Peer {
	// With a request timeout, so the call's timer is on the counted path.
	p, err := comm.DialTCPOpts(d.addrs[node], comm.PeerOptions{RequestTimeout: 10 * time.Second})
	if err != nil {
		d.t.Fatalf("dial %s: %v", node, err)
	}
	return p
}

// remoteMapping returns node n0's view of a 2-node map over TCP loopback
// and a key n1 owns holding a mapping string.
func remoteMapping(t testing.TB) (m0 *Map, key string) {
	t.Helper()
	names := []string{"n0", "n1"}
	mux1 := comm.NewMux()
	ln, err := comm.ListenTCP("127.0.0.1:0", mux1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dial := tcpDialer{t: t, addrs: map[string]string{"n1": ln.Addr()}}
	m0 = New(Config{Name: "hfetch-maps", Self: "n0", Nodes: names, Dialer: dial}, nil)
	m1 := New(Config{Name: "hfetch-maps", Self: "n1", Nodes: names}, mux1)
	for i := 0; ; i++ {
		key = fmt.Sprintf("/data/file-%d", i)
		if m0.Owner(StringKey(key)) == "n1" {
			break
		}
	}
	if err := m1.Put(key, "n1|ram"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p, err := m0.peer("n1"); err == nil {
			p.Close()
		}
	})
	return m0, key
}

// TestRemoteGetAllocs guards the dhm RPC's allocation budget: one get of
// a mapping string from a remote owner over TCP loopback, both ends in
// this process. What is left is the response head the client owns; the
// value is the interned one. The budget holds in every build, the
// invariant build's included.
func TestRemoteGetAllocs(t *testing.T) {
	m0, key := remoteMapping(t)
	get := func() {
		if v, ok, err := m0.Get(key); err != nil || !ok || v.(string) != "n1|ram" {
			t.Fatalf("remote get = %v, %v, %v", v, ok, err)
		}
	}
	get() // dial, intern the value, the connection's first worker
	got := testing.AllocsPerRun(200, get)
	t.Logf("a remote dhm.Get of a mapping string: %.1f allocs", got)
	if got > 2 {
		t.Fatalf("a remote dhm.Get costs %.1f allocs, budget 2", got)
	}
}

var benchVal any

// BenchmarkRemoteGet is the per-layer "wire encode" figure for dhm: one
// get of a mapping string from a remote owner over TCP loopback.
func BenchmarkRemoteGet(b *testing.B) {
	m0, key := remoteMapping(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok, err := m0.Get(key)
		if err != nil || !ok {
			b.Fatalf("remote get = %v, %v, %v", v, ok, err)
		}
		benchVal = v
	}
}

func FuzzParseReq(f *testing.F) {
	plain := appendReq(nil, Key{File: "f", Index: 3}, "aud.access", make([]byte, 16))
	put, _ := appendValue(appendReq(nil, Key{File: "f", Index: 3}, "", nil), "n0|ram")
	f.Add(plain, false)
	f.Add(put, true)
	f.Add(put, false)                        // trailing bytes on a value-less request
	f.Add(plain[:2], false)                  // the index is cut off
	f.Add([]byte{1, 'f', 0x80, 0x80}, false) // the index's varint never ends
	f.Add(appendReq(nil, Key{File: strings.Repeat("k", maxKeyFile+1)}, "", nil), false)
	f.Add([]byte{}, true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, true)
	f.Fuzz(func(t *testing.T, data []byte, withValue bool) {
		r, err := parseReq(data, withValue)
		if err != nil {
			return
		}
		if len(r.key.File) > maxKeyFile || (!withValue && len(r.val) != 0) {
			t.Fatalf("parsed a request it must refuse: %+v", r)
		}
		if len(r.key.File)+len(r.op)+len(r.arg)+len(r.val) >= len(data) {
			t.Fatalf("decoded fields outgrow the %d-byte head", len(data))
		}
	})
}

func FuzzParseResp(f *testing.F) {
	for _, v := range valueCases {
		enc, _ := appendResp(nil, true, v)
		f.Add(enc)
	}
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, found, err := parseResp(data)
		if err != nil {
			return
		}
		// Whatever parsed must encode again (ints re-encode minimally,
		// so only the decoded value, not the bytes, is compared).
		enc, err := appendResp(nil, found, v)
		if err != nil {
			t.Fatalf("parsed value %#v does not encode: %v", v, err)
		}
		v2, found2, err := parseResp(enc)
		if err != nil || found2 != found || !valuesEqual(v, v2) {
			t.Fatalf("%#v re-parsed as %#v, %v, %v", v, v2, found2, err)
		}
	})
}
