package cluster

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hfetch/internal/core/auditor"
	"hfetch/internal/core/seg"
)

var updateCases = [][]auditor.Update{
	nil,
	{{ID: seg.ID{File: "/data/f", Index: 3}, Score: 1.5, Size: 65536, Trace: 9, Origin: "node1"}},
	{
		{ID: seg.ID{File: "a", Index: 0}, Score: 0, Size: 0, Origin: ""},
		{ID: seg.ID{File: "a", Index: 1}, Score: math.Inf(1), Size: 1 << 40, Trace: 1<<64 - 1, Origin: "n"},
		{ID: seg.ID{File: strings.Repeat("p/", 150), Index: -1}, Score: -2.25, Size: -1, Origin: strings.Repeat("o", 300)},
	},
}

func TestUpdatesCodec(t *testing.T) {
	for _, want := range updateCases {
		enc := appendUpdates(nil, want)
		got, err := parseUpdates(enc)
		if err != nil || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%+v round-tripped to %+v, err %v", want, got, err)
		}
		for n := 0; n < len(enc); n++ {
			if _, err := parseUpdates(enc[:n]); err == nil {
				t.Fatalf("batch of %d truncated to %d of %d bytes parsed", len(want), n, len(enc))
			}
		}
		if _, err := parseUpdates(append(enc, 0)); err == nil {
			t.Fatalf("batch of %d with a trailing byte parsed", len(want))
		}
	}
	// A count the bytes cannot hold is refused before the slice is made.
	if _, err := parseUpdates([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3}); err == nil {
		t.Fatal("a batch claiming 2^32 updates in 3 bytes parsed")
	}
}

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
			got, err := parseHeartbeat(enc)
			if err != nil || !equalHeartbeat(got, m) {
				t.Fatalf("%+v round-tripped to %+v, err %v", m, got, err)
			}
			for n := 0; n < len(enc); n++ {
				if _, err := parseHeartbeat(enc[:n]); err == nil {
					t.Fatalf("%+v truncated to %d of %d bytes parsed", m, n, len(enc))
				}
			}
			if _, err := parseHeartbeat(append(enc, 0)); err == nil {
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
		if _, err := parseHeartbeat(b); err == nil {
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
		m, err := parseHeartbeat(data)
		if err != nil {
			return
		}
		if (len(m.Members)+1)*minMemberLen > len(data) {
			t.Fatalf("%d members decoded from %d bytes", len(m.Members)+1, len(data))
		}
		if again, err := parseHeartbeat(appendHeartbeat(nil, m)); err != nil || !equalHeartbeat(again, m) {
			t.Fatalf("accepted heartbeat does not re-encode: %v", err)
		}
	})
}

func FuzzParseUpdates(f *testing.F) {
	for _, ups := range updateCases {
		f.Add(appendUpdates(nil, ups))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		ups, err := parseUpdates(data)
		if err != nil {
			return
		}
		if len(ups)*minUpdateLen > len(data) {
			t.Fatalf("%d updates decoded from %d bytes", len(ups), len(data))
		}
		again, err := parseUpdates(appendUpdates(nil, ups))
		if err != nil || len(again) != len(ups) {
			t.Fatalf("accepted batch does not re-encode: %v", err)
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
