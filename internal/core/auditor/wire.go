package auditor

import (
	"encoding/binary"
	"errors"
	"math"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/score"
	"hfetch/internal/dhm"
)

// tagRec is *Rec's dhm value tag.
const tagRec = dhm.FirstValueTag

func init() {
	dhm.RegisterValue(dhm.ValueCodec{Tag: tagRec, Append: appendRecValue, Parse: parseRecValue})
}

var errShortRec = errors.New("auditor: segment record truncated or malformed")

// noTime encodes the zero time.Time, which has no UnixNano.
const noTime = math.MinInt64

func appendRecValue(dst []byte, v any) ([]byte, bool) {
	r, ok := v.(*Rec)
	if !ok || r == nil {
		return dst, false
	}
	return appendRec(dst, r), true
}

func parseRecValue(b []byte) (any, error) { return parseRec(b) }

// appendRec appends r's wire form:
//
//	k varint | last i64 | refs varint | sum f64 | size varint | succ varint |
//	uvarint n | n × history i64
//
//hfetch:hotpath
func appendRec(dst []byte, r *Rec) []byte {
	dst = binary.AppendVarint(dst, r.Stats.K)
	dst = binary.BigEndian.AppendUint64(dst, uint64(timeNanos(r.Stats.Last)))
	dst = binary.AppendVarint(dst, r.Stats.Refs)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Stats.Sum))
	dst = binary.AppendVarint(dst, r.Size)
	dst = binary.AppendVarint(dst, r.Succ)
	times := r.Stats.Times()
	dst = binary.AppendUvarint(dst, uint64(len(times)))
	for _, ns := range times {
		dst = binary.BigEndian.AppendUint64(dst, uint64(ns))
	}
	return dst
}

// parseRec decodes a record occupying all of b, of a longer history the
// newest score.Window times.
//
//hfetch:hotpath
func parseRec(b []byte) (*Rec, error) {
	r := &Rec{}
	var ok bool
	if r.Stats.K, b, ok = comm.CutVarint(b); !ok || len(b) < 8 {
		return nil, errShortRec
	}
	r.Stats.Last, b = nanosTime(int64(binary.BigEndian.Uint64(b))), b[8:]
	if r.Stats.Refs, b, ok = comm.CutVarint(b); !ok || len(b) < 8 {
		return nil, errShortRec
	}
	r.Stats.Sum, b = math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:]
	if r.Size, b, ok = comm.CutVarint(b); !ok {
		return nil, errShortRec
	}
	if r.Succ, b, ok = comm.CutVarint(b); !ok {
		return nil, errShortRec
	}
	n, w := binary.Uvarint(b)
	if w <= 0 || n != uint64(len(b)-w)/8 || (len(b)-w)%8 != 0 {
		return nil, errShortRec
	}
	b = b[w:]
	if n > score.Window {
		b, n = b[8*(n-score.Window):], score.Window
	}
	r.Stats.N = int(n)
	for i := range r.Stats.Stamps[:n] {
		r.Stats.Stamps[i] = int64(binary.BigEndian.Uint64(b[8*i:]))
	}
	return r, nil
}

func timeNanos(t time.Time) int64 {
	if t.IsZero() {
		return noTime
	}
	return t.UnixNano()
}

func nanosTime(n int64) time.Time {
	if n == noTime {
		return time.Time{}
	}
	return time.Unix(0, n)
}
