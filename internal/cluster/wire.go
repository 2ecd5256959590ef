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
// comm.WrapTrace prefix) and of the membership heartbeat:
//
//	cluster.update: uvarint n | n × update
//	  update:       uvarint len | file | idx varint | score f64 |
//	                size varint | trace u64 | uvarint len | origin
//	cluster.inval:  uvarint len | file
//	cluster.hb:     member (sender) | varint n | n × member
//	  member:       name | addr | ops (each uvarint len | bytes) | incarnation, keys varint

var errShortHead = errors.New("cluster: message head truncated or malformed")

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

// appendHeartbeat appends a heartbeat. A response is one too, carrying
// only the receiver's members.
func appendHeartbeat(dst []byte, m hbMsg) []byte {
	dst = binary.AppendVarint(appendMember(dst, m.From), int64(len(m.Members)))
	for _, w := range m.Members {
		dst = appendMember(dst, w)
	}
	return dst
}

func appendMember(dst []byte, w wireMember) []byte {
	dst = comm.AppendString(comm.AppendString(comm.AppendString(dst, w.Name), w.Addr), w.Ops)
	return binary.AppendVarint(binary.AppendVarint(dst, int64(w.Incarnation)), w.Keys)
}

// parseHeartbeat decodes a heartbeat occupying all of b. The first field
// cut short clears ok for good and ends the list, so a claimed count
// grows it no further than the bytes present hold.
func parseHeartbeat(b []byte) (hbMsg, error) {
	ok := true
	str := func() string {
		f, rest, cut := comm.CutBytes(b)
		b, ok = rest, ok && cut
		return string(f)
	}
	num := func() int64 {
		v, rest, cut := comm.CutVarint(b)
		b, ok = rest, ok && cut
		return v
	}
	member := func() wireMember {
		return wireMember{Name: str(), Addr: str(), Ops: str(), Incarnation: uint64(num()), Keys: num()}
	}
	m := hbMsg{From: member()}
	for n := num(); n != 0 && ok; n-- {
		m.Members = append(m.Members, member())
	}
	if !ok || len(b) != 0 {
		return hbMsg{}, errShortHead
	}
	return m, nil
}
