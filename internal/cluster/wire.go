package cluster

import (
	"encoding/binary"
	"errors"
	"math"

	"hfetch/internal/comm"
	"hfetch/internal/core/auditor"
	"hfetch/internal/core/seg"
)

// Head codecs of the router's two messages (both ride under a
// comm.WrapTrace prefix):
//
//	cluster.update: uvarint n | n × update
//	  update:       uvarint len | file | idx varint | score f64 |
//	                size varint | trace u64 | uvarint len | origin
//	cluster.inval:  uvarint len | file

var errShortHead = errors.New("cluster: routed message head truncated or malformed")

// minUpdateLen is the smallest encoded update (empty file and origin),
// used to bound a batch's claimed count by the bytes actually present.
const minUpdateLen = 1 + 1 + 8 + 1 + 8 + 1

// appendUpdates appends a score-update batch.
//
//hfetch:hotpath
func appendUpdates(dst []byte, ups []auditor.Update) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ups)))
	for i := range ups {
		u := &ups[i]
		dst = comm.AppendString(dst, u.ID.File)
		dst = binary.AppendVarint(dst, u.ID.Index)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(u.Score))
		dst = binary.AppendVarint(dst, u.Size)
		dst = binary.BigEndian.AppendUint64(dst, u.Trace)
		dst = comm.AppendString(dst, u.Origin)
	}
	return dst
}

// parseUpdates decodes a batch occupying all of b.
//
//hfetch:hotpath
func parseUpdates(b []byte) ([]auditor.Update, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w)/minUpdateLen {
		return nil, errShortHead
	}
	b = b[w:]
	ups := make([]auditor.Update, n)
	// Consecutive updates mostly name the same file and origin: reuse
	// the previous string instead of allocating an equal one.
	var file, origin string
	for i := range ups {
		var ok bool
		var f []byte
		if f, b, ok = comm.CutBytes(b); !ok {
			return nil, errShortHead
		}
		if string(f) != file {
			file = string(f)
		}
		u := auditor.Update{ID: seg.ID{File: file}}
		if u.ID.Index, b, ok = comm.CutVarint(b); !ok || len(b) < 8 {
			return nil, errShortHead
		}
		u.Score, b = math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:]
		if u.Size, b, ok = comm.CutVarint(b); !ok || len(b) < 8 {
			return nil, errShortHead
		}
		u.Trace, b = binary.BigEndian.Uint64(b), b[8:]
		if f, b, ok = comm.CutBytes(b); !ok {
			return nil, errShortHead
		}
		if string(f) != origin {
			origin = string(f)
		}
		u.Origin = origin
		ups[i] = u
	}
	if len(b) != 0 {
		return nil, errShortHead
	}
	return ups, nil
}

// appendInval appends a file invalidation.
//
//hfetch:hotpath
func appendInval(dst []byte, file string) []byte { return comm.AppendString(dst, file) }

// parseInval decodes an invalidation occupying all of b.
//
//hfetch:hotpath
func parseInval(b []byte) (string, error) {
	f, rest, ok := comm.CutBytes(b)
	if !ok || len(rest) != 0 {
		return "", errShortHead
	}
	return string(f), nil
}
