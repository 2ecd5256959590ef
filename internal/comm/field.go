package comm

import (
	"encoding/binary"
	"unsafe"
)

// Building blocks for head codecs. comm never looks inside a head, but
// every owner's codec needs the same length-prefixed fields, and the
// bounds check on a peer-supplied length belongs in one place.

// AppendString appends s as a uvarint length and its bytes.
//
//hfetch:hotpath
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends b as a uvarint length and its bytes.
//
//hfetch:hotpath
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// CutBytes splits a uvarint-length-prefixed field off the front of b;
// field aliases b. ok is false when the length or the field is cut short.
//
//hfetch:hotpath
func CutBytes(b []byte) (field, rest []byte, ok bool) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, false
	}
	end := w + int(n)
	return b[w:end], b[end:], true
}

// CutView is CutBytes with the field as a string aliasing b, for lookups
// and comparisons only: it is valid while b is and must never be kept.
//
//hfetch:hotpath
func CutView(b []byte) (field string, rest []byte, ok bool) {
	f, rest, ok := CutBytes(b)
	return unsafe.String(unsafe.SliceData(f), len(f)), rest, ok
}

// CutVarint splits a zig-zag varint off the front of b.
//
//hfetch:hotpath
func CutVarint(b []byte) (v int64, rest []byte, ok bool) {
	v, w := binary.Varint(b)
	if w <= 0 {
		return 0, nil, false
	}
	return v, b[w:], true
}
