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
