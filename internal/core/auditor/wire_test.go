package auditor

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"

	"hfetch/internal/core/score"
	"hfetch/internal/dhm"
)

var recCases = []*Rec{
	{Succ: -1},
	{Stats: score.Stats{K: 3, Last: time.Unix(0, 1700000000123456789), Refs: 2, Sum: 1.75}, Size: 65536, Succ: 4},
	{Stats: score.Stats{K: 1 << 40, Last: time.Unix(0, 1), Refs: -1, Sum: -0.0,
		N: 3, Stamps: [score.Window]int64{5, math.MinInt64, 1 << 62}}, Size: 1, Succ: 1 << 50},
}

func recEqual(a, b *Rec) bool {
	if a.Size != b.Size || a.Succ != b.Succ || a.Stats.K != b.Stats.K || a.Stats.Refs != b.Stats.Refs ||
		math.Float64bits(a.Stats.Sum) != math.Float64bits(b.Stats.Sum) || !a.Stats.Last.Equal(b.Stats.Last) {
		return false
	}
	return a.Stats.N == b.Stats.N && a.Stats.Stamps == b.Stats.Stamps
}

func TestRecCodec(t *testing.T) {
	for _, want := range recCases {
		enc := appendRec(nil, want)
		got, err := parseRec(enc)
		if err != nil || !recEqual(got, want) {
			t.Fatalf("%+v round-tripped to %+v, err %v", want, got, err)
		}
		if got.Stats.Last.IsZero() != want.Stats.Last.IsZero() {
			t.Fatalf("zero time not preserved for %+v", want)
		}
		for n := 0; n < len(enc); n++ {
			if _, err := parseRec(enc[:n]); err == nil {
				t.Fatalf("%+v truncated to %d of %d bytes parsed", want, n, len(enc))
			}
		}
		if _, err := parseRec(append(enc, 0)); err == nil {
			t.Fatalf("%+v with a trailing byte parsed", want)
		}
	}
}

// TestParseRecKeepsNewestWindow: a history longer than the window (a
// peer that keeps more) decodes to its newest score.Window times.
func TestParseRecKeepsNewestWindow(t *testing.T) {
	enc := appendRec(nil, recCases[1])
	enc = binary.AppendUvarint(enc[:len(enc)-1], score.Window+8) // drop the empty history's count
	for i := int64(0); i < score.Window+8; i++ {
		enc = binary.BigEndian.AppendUint64(enc, uint64(1000+i))
	}
	r, err := parseRec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.N != score.Window || r.Stats.Stamps[0] != 1008 || r.Stats.Stamps[score.Window-1] != 1000+score.Window+7 {
		t.Fatalf("a history of %d parsed as %d times %v", score.Window+8, r.Stats.N, r.Stats.Stamps)
	}
}

// TestRecCrossesTheDHMWire checks the registration: a *Rec put through
// the dhm value codec comes back as a *Rec.
func TestRecCrossesTheDHMWire(t *testing.T) {
	enc, ok := appendRecValue(nil, recCases[1])
	if !ok {
		t.Fatal("appendRecValue refused a *Rec")
	}
	if _, ok := appendRecValue(nil, "not a rec"); ok {
		t.Fatal("appendRecValue accepted a string")
	}
	v, err := parseRecValue(enc)
	if err != nil || reflect.TypeOf(v) != reflect.TypeOf(&Rec{}) || !recEqual(v.(*Rec), recCases[1]) {
		t.Fatalf("parseRecValue = %#v, %v", v, err)
	}
	if tagRec < dhm.FirstValueTag {
		t.Fatal("tagRec collides with dhm's built-in tags")
	}
}

func FuzzParseRec(f *testing.F) {
	for _, r := range recCases {
		f.Add(appendRec(nil, r))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parseRec(data)
		if err != nil {
			return
		}
		if r.Stats.N*8 > len(data) {
			t.Fatalf("%d history entries decoded from %d bytes", r.Stats.N, len(data))
		}
		again, err := parseRec(appendRec(nil, r))
		if err != nil || !recEqual(r, again) {
			t.Fatalf("%+v re-parsed as %+v, %v", r, again, err)
		}
	})
}
