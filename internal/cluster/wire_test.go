package cluster

import (
	"slices"
	"strings"
	"testing"
)

func TestInvalCodec(t *testing.T) {
	for _, want := range []string{"", "/data/f", strings.Repeat("x", 500)} {
		enc := appendInval(nil, want)
		got, err := parseInval(enc)
		if err != nil || got != want {
			t.Fatalf("%q round-tripped to %q, err %v", want, got, err)
		}
		for n := 0; n < len(enc); n++ {
			if _, err := parseInval(enc[:n]); err == nil {
				t.Fatalf("%q truncated to %d of %d bytes parsed", want, n, len(enc))
			}
		}
		if _, err := parseInval(append(enc, 'x')); err == nil {
			t.Fatalf("%q with a trailing byte parsed", want)
		}
	}
}

var heartbeatCases = []hbMsg{
	{},
	{From: wireMember{Name: "n0", Addr: "127.0.0.1:7480", Ops: "127.0.0.1:7470", Incarnation: 1 << 62, Keys: 12}},
	{
		From: wireMember{Name: "n1", Incarnation: 7, Keys: -1},
		Members: []wireMember{
			{Name: "n0", Addr: "n0", Incarnation: 1<<64 - 1},
			{Name: strings.Repeat("m", 300), Ops: "o"},
		},
	},
}

// equalHeartbeat compares decoded heartbeats.
func equalHeartbeat(a, b hbMsg) bool {
	return a.From == b.From && slices.Equal(a.Members, b.Members)
}

// The smallest encoded member (every string empty).
const minMemberLen = 5

func TestHeartbeatCodec(t *testing.T) {
	for _, want := range heartbeatCases {
		// A request, and the response shape: members only.
		for _, m := range []hbMsg{want, {Members: want.Members}} {
			enc := appendHeartbeat(nil, m)
			got, err := parseHeartbeat(enc, nil, nil)
			if err != nil || !equalHeartbeat(got, m) {
				t.Fatalf("%+v round-tripped to %+v, err %v", m, got, err)
			}
			// Against a table that knows every name, with some fields equal
			// to the heartbeat's and some not, into another list's storage.
			known := map[string]*memberState{}
			for _, w := range append(m.Members, m.From) {
				known[w.Name] = &memberState{name: w.Name, addr: "n0", ops: "o"}
			}
			got, err = parseHeartbeat(enc, []wireMember{{Name: "x"}, {Addr: "y"}, {}}, known)
			if err != nil || !equalHeartbeat(got, m) {
				t.Fatalf("%+v parsed against a table to %+v, err %v", m, got, err)
			}
			for n := 0; n < len(enc); n++ {
				if _, err := parseHeartbeat(enc[:n], nil, nil); err == nil {
					t.Fatalf("%+v truncated to %d of %d bytes parsed", m, n, len(enc))
				}
			}
			if _, err := parseHeartbeat(append(enc, 0), nil, nil); err == nil {
				t.Fatalf("%+v with a trailing byte parsed", m)
			}
		}
	}
	// Counts the bytes cannot hold, or negative ones, are refused.
	sender := appendMember(nil, wireMember{})
	for _, b := range [][]byte{
		append(append([]byte(nil), sender...), 0xfe, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3),
		append(append([]byte(nil), sender...), 1, 0),
	} {
		if _, err := parseHeartbeat(b, nil, nil); err == nil {
			t.Fatalf("a heartbeat claiming more entries than its %d bytes hold parsed", len(b))
		}
	}
}

func FuzzParseHeartbeat(f *testing.F) {
	for _, m := range heartbeatCases {
		f.Add(appendHeartbeat(nil, m))
		f.Add(appendHeartbeat(nil, hbMsg{Members: m.Members}))
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseHeartbeat(data, nil, nil)
		if err != nil {
			return
		}
		if (len(m.Members)+1)*minMemberLen > len(data) {
			t.Fatalf("%d members decoded from %d bytes", len(m.Members)+1, len(data))
		}
		if again, err := parseHeartbeat(appendHeartbeat(nil, m), nil, nil); err != nil || !equalHeartbeat(again, m) {
			t.Fatalf("accepted heartbeat does not re-encode: %v", err)
		}
	})
}

func FuzzParseInval(f *testing.F) {
	f.Add(appendInval(nil, "/data/f"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := parseInval(data)
		if err == nil && len(file) >= len(data) {
			t.Fatalf("a %d-byte name decoded from %d bytes", len(file), len(data))
		}
	})
}
