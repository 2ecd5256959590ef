package server

import (
	"encoding/binary"
	"errors"

	"hfetch/internal/comm"
)

// Head codecs of the srv.read peer read. The payload itself never
// passes through here: it rides the frame's body by reference.
//
//	request:  uvarint len | tier | uvarint len | file | idx i64 | off i64 | len u32
//	response: ok u8   (the served length is the frame's body length)

var errShortHead = errors.New("server: srv.read head truncated or malformed")

// remoteReadReq is a srv.read request. Decoded, Tier and File alias the
// head (comm.CutView): the handler resolves them in place and copies
// only what it keeps.
type remoteReadReq struct {
	Tier string
	File string
	Idx  int64
	Off  int64
	Len  int
}

// appendReadReq appends r's encoding to dst.
//
//hfetch:hotpath
func appendReadReq(dst []byte, r remoteReadReq) []byte {
	dst = comm.AppendString(dst, r.Tier)
	dst = comm.AppendString(dst, r.File)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Idx))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Off))
	return binary.BigEndian.AppendUint32(dst, uint32(r.Len))
}

// parseReadReq decodes a request head; trailing bytes are an error.
//
//hfetch:hotpath
func parseReadReq(b []byte) (remoteReadReq, error) {
	tier, b, ok := comm.CutView(b)
	if !ok {
		return remoteReadReq{}, errShortHead
	}
	file, b, ok := comm.CutView(b)
	if !ok || len(b) != 20 {
		return remoteReadReq{}, errShortHead
	}
	r := remoteReadReq{Tier: tier, File: file}
	r.Idx = int64(binary.BigEndian.Uint64(b))
	r.Off = int64(binary.BigEndian.Uint64(b[8:]))
	r.Len = int(binary.BigEndian.Uint32(b[16:]))
	return r, nil
}

// Response heads are one byte; both are shared constants so a reply
// allocates nothing for its head.
var (
	readRespOK   = []byte{1}
	readRespMiss = []byte{0}
)

// parseReadResp decodes a response head into its resident flag.
//
//hfetch:hotpath
func parseReadResp(b []byte) (ok bool, err error) {
	if len(b) != 1 || b[0] > 1 {
		return false, errShortHead
	}
	return b[0] == 1, nil
}
