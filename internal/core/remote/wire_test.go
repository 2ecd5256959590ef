package remote

import (
	"strings"
	"testing"

	"hfetch/internal/comm"
)

var readReqCases = []readReq{
	{File: "/data/f", Off: 0, Len: 65536},
	{File: "", Off: 0, Len: 0},
	{File: strings.Repeat("d/", 200) + "f", Off: 1 << 40, Len: 1},
	{File: "neg", Off: -7, Len: -1},
}

func TestAgentReadReqCodec(t *testing.T) {
	for _, want := range readReqCases {
		enc := appendReadReq(nil, want)
		got, err := parseReadReq(enc)
		if err != nil || got != want {
			t.Fatalf("round trip of %+v: got %+v, err %v", want, got, err)
		}
		// Every strict prefix is a truncation, and so is a longer head.
		for n := 0; n < len(enc); n++ {
			if _, err := parseReadReq(enc[:n]); err == nil {
				t.Fatalf("%+v truncated to %d of %d bytes parsed", want, n, len(enc))
			}
		}
		if _, err := parseReadReq(append(enc, 0)); err == nil {
			t.Fatalf("%+v with a trailing byte parsed", want)
		}
	}
}

func TestAgentReadRespCodec(t *testing.T) {
	for _, tier := range []string{"", "ram", "nvme"} {
		enc := comm.AppendString(nil, tier)
		if got, err := parseReadResp(enc); err != nil || got != tier {
			t.Fatalf("round trip of %q: got %q, err %v", tier, got, err)
		}
		if _, err := parseReadResp(append(enc, 0)); err == nil {
			t.Fatalf("%q with a trailing byte parsed", tier)
		}
	}
	if _, err := parseReadResp(nil); err == nil {
		t.Fatal("an empty head parsed")
	}
}

func FuzzParseAgentReadReq(f *testing.F) {
	for _, r := range readReqCases {
		f.Add(appendReadReq(nil, r))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parseReadReq(data)
		if err != nil {
			return
		}
		if len(r.File) > len(data) {
			t.Fatalf("decoded file outgrows the %d-byte head", len(data))
		}
		// Lengths may arrive as non-minimal varints, so compare the
		// decoded request, not the bytes.
		if again, err := parseReadReq(appendReadReq(nil, r)); err != nil || again != r {
			t.Fatalf("%+v re-parsed as %+v, %v", r, again, err)
		}
	})
}

func FuzzParseAgentReadResp(f *testing.F) {
	f.Add(comm.AppendString(nil, "ram"))
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tier, err := parseReadResp(data)
		if err != nil {
			return
		}
		if enc := comm.AppendString(nil, tier); len(enc) > len(data) || tier != string(data[len(data)-len(tier):]) {
			t.Fatalf("%x parsed as tier %q", data, tier)
		}
	})
}
