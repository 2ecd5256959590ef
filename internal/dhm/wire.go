package dhm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"sync/atomic"

	"hfetch/internal/comm"
)

// Head codecs of the dhm RPC. The operation (get/put/del/apply) is the
// frame's message type; the heads are:
//
//	request:  uvarint len | file | varint index | uvarint len | op | uvarint len | arg | value
//	response: found u8 | value      (get)
//	          found u8 | answer     (apply: the bytes the op appended under
//	                                 its lock; an OpFunc's are its new value)
//	value:    tag u8 | payload      (absent value: zero bytes)
//
// Built-in value tags cover the kinds the maps hold natively; any other
// type crosses the wire only if its owner registered a ValueCodec.
const (
	tagString byte = 1 // payload: the bytes
	tagInt    byte = 2 // payload: zig-zag varint
	tagInt64  byte = 3 // payload: zig-zag varint
	tagUint64 byte = 4 // payload: uvarint

	// FirstValueTag is the lowest tag a registered ValueCodec may use.
	FirstValueTag byte = 16
)

var errShortHead = errors.New("dhm: rpc head truncated or malformed")

// ValueCodec encodes one concrete value type for remote owners.
type ValueCodec struct {
	// Tag identifies the type on the wire (≥ FirstValueTag, unique).
	Tag byte
	// Append appends v's payload to dst; ok is false when v is not this
	// codec's type (dst is returned unchanged).
	Append func(dst []byte, v any) (out []byte, ok bool)
	// Parse decodes a payload produced by Append. It must not keep b.
	Parse func(b []byte) (any, error)
}

// valueCodecs is the registration table: filled from init functions
// only, so reads need no synchronization.
var valueCodecs []ValueCodec

// RegisterValue installs a codec for a value type stored in remote-
// capable maps. Call it from the owning package's init; a tag below
// FirstValueTag or already taken panics (a wiring bug, not input).
func RegisterValue(c ValueCodec) {
	if c.Tag < FirstValueTag || c.Append == nil || c.Parse == nil {
		panic(fmt.Sprintf("dhm: invalid value codec (tag %d)", c.Tag))
	}
	for _, old := range valueCodecs {
		if old.Tag == c.Tag {
			panic(fmt.Sprintf("dhm: value tag %d registered twice", c.Tag))
		}
	}
	valueCodecs = append(valueCodecs, c)
}

// appendValue appends v's tagged encoding. An unregistered type is an
// error: there is no reflective fallback on the wire.
//
//hfetch:hotpath
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case string:
		return append(append(dst, tagString), x...), nil
	case int:
		return binary.AppendVarint(append(dst, tagInt), int64(x)), nil
	case int64:
		return binary.AppendVarint(append(dst, tagInt64), x), nil
	case uint64:
		return binary.AppendUvarint(append(dst, tagUint64), x), nil
	}
	for _, c := range valueCodecs {
		if out, ok := c.Append(append(dst, c.Tag), v); ok {
			return out, nil
		}
	}
	return dst, unregisteredValue(v)
}

func unregisteredValue(v any) error {
	return fmt.Errorf("dhm: no wire codec for value type %T (see RegisterValue)", v)
}

// parseValue decodes a tagged value occupying all of b.
//
//hfetch:hotpath
func parseValue(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, errShortHead
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagString:
		return internString(b), nil
	case tagInt, tagInt64:
		x, w := binary.Varint(b)
		if w <= 0 || w != len(b) {
			return nil, errShortHead
		}
		if tag == tagInt {
			return int(x), nil
		}
		return x, nil
	case tagUint64:
		x, w := binary.Uvarint(b)
		if w <= 0 || w != len(b) {
			return nil, errShortHead
		}
		return x, nil
	}
	for _, c := range valueCodecs {
		if c.Tag == tag {
			return c.Parse(b)
		}
	}
	return nil, unknownValueTag(tag)
}

// Decoded strings are interned in a direct-mapped table: every remote get
// of one mapping shares one boxed "node|tier". A collision costs what an
// uninterned decode would; a long string is never held.
var (
	internSeed = maphash.MakeSeed()
	interned   [256]atomic.Pointer[any]
)

//hfetch:hotpath
func internString(b []byte) any {
	if len(b) > 256 {
		return string(b)
	}
	slot := &interned[maphash.Bytes(internSeed, b)%uint64(len(interned))]
	if v := slot.Load(); v != nil && (*v).(string) == string(b) {
		return *v
	}
	v := any(string(b))
	slot.Store(&v)
	return v
}

func unknownValueTag(tag byte) error {
	return fmt.Errorf("dhm: unknown value tag %d", tag)
}

// maxKeyFile bounds the file of a key taken off the wire: far above any
// path, far below what a corrupt length could claim of a 4 MiB head.
const maxKeyFile = 64 << 10

// rpcReq is a decoded request head. All of it aliases the head, key.File
// and op too (comm.CutView): a handler clones the file only to store it.
type rpcReq struct {
	key Key
	op  string
	arg []byte
	val []byte // tagged value encoding; empty when the request has none
}

// appendReq appends a request head up to, not including, its value; a
// put appends the value with appendValue.
//
//hfetch:hotpath
func appendReq(dst []byte, k Key, op string, arg []byte) []byte {
	dst = comm.AppendString(dst, k.File)
	dst = binary.AppendVarint(dst, k.Index)
	dst = comm.AppendString(dst, op)
	return comm.AppendBytes(dst, arg)
}

// parseReq decodes a request head. Only a put carries a value; on the
// other operations bytes after arg are an error.
//
//hfetch:hotpath
func parseReq(b []byte, withValue bool) (rpcReq, error) {
	file, b, ok := comm.CutView(b)
	if !ok || len(file) > maxKeyFile {
		return rpcReq{}, errShortHead
	}
	idx, b, ok := comm.CutVarint(b)
	if !ok {
		return rpcReq{}, errShortHead
	}
	op, b, ok := comm.CutView(b)
	if !ok {
		return rpcReq{}, errShortHead
	}
	arg, b, ok := comm.CutBytes(b)
	if !ok || (!withValue && len(b) != 0) {
		return rpcReq{}, errShortHead
	}
	return rpcReq{key: Key{File: file, Index: idx}, op: op, arg: arg, val: b}, nil
}

// appendResp appends a response head: found, then the value if found.
//
//hfetch:hotpath
func appendResp(dst []byte, found bool, val any) ([]byte, error) {
	if !found {
		return append(dst, 0), nil
	}
	return appendValue(append(dst, 1), val)
}

// parseResp decodes a response head.
//
//hfetch:hotpath
func parseResp(b []byte) (val any, found bool, err error) {
	if len(b) == 0 || b[0] > 1 {
		return nil, false, errShortHead
	}
	if b[0] == 0 {
		if len(b) != 1 {
			return nil, false, errShortHead
		}
		return nil, false, nil
	}
	val, err = parseValue(b[1:])
	return val, err == nil, err
}

// parseApplyResp decodes an apply response head: whether the key holds a
// value now, and the op's answer (which aliases b).
//
//hfetch:hotpath
func parseApplyResp(b []byte) (found bool, answer []byte, err error) {
	if len(b) == 0 || b[0] > 1 {
		return false, nil, errShortHead
	}
	return b[0] == 1, b[1:], nil
}
