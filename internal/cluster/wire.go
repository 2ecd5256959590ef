package cluster

import (
	"encoding/binary"
	"errors"

	"hfetch/internal/comm"
)

// Head codecs of the router's invalidation (it rides under a
// comm.WrapTrace prefix) and of the membership heartbeat:
//
//	cluster.inval:  uvarint len | file
//	cluster.hb:     member (sender) | varint n | n × member
//	  member:       name | addr | ops (each uvarint len | bytes) | incarnation, keys varint

var errShortHead = errors.New("cluster: message head truncated or malformed")

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

// parseHeartbeat decodes a heartbeat occupying all of b, its members
// appended to into[:0]. A field equal to what known holds for the member
// reuses that string, so a steady view's heartbeat copies no bytes. The
// first field cut short clears ok for good and ends the list, so a
// claimed count grows it no further than the bytes present hold.
func parseHeartbeat(b []byte, into []wireMember, known map[string]*memberState) (hbMsg, error) {
	ok := true
	str := func(have string) string {
		f, rest, cut := comm.CutBytes(b)
		b, ok = rest, ok && cut
		if string(f) == have {
			return have
		}
		return string(f)
	}
	num := func() int64 {
		v, rest, cut := comm.CutVarint(b)
		b, ok = rest, ok && cut
		return v
	}
	member := func() wireMember {
		var have memberState
		if name, _, _ := comm.CutBytes(b); known[string(name)] != nil {
			have = *known[string(name)]
		}
		return wireMember{Name: str(have.name), Addr: str(have.addr), Ops: str(have.ops), Incarnation: uint64(num()), Keys: num()}
	}
	m := hbMsg{From: member(), Members: into[:0]}
	for n := num(); n != 0 && ok; n-- {
		m.Members = append(m.Members, member())
	}
	if !ok || len(b) != 0 {
		return hbMsg{}, errShortHead
	}
	return m, nil
}
