package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"hfetch/internal/tiers"
)

// The wire is one fixed binary frame; the package comment has the layout
// table. Every length is checked against its bound before anything is
// allocated, so a corrupt or hostile header costs 24 bytes of reading
// and a closed connection.
const (
	frameMagic0 = 'H'
	frameMagic1 = 'F'

	// WireVersion is the wire this build speaks: the frame layout and
	// what the heads on it mean. A peer that sends any other version is
	// refused at its first frame. 2 keys the dhm by (file, index): a
	// version 1 peer would hash the same segment to another owner. 3
	// answers a dhm apply with the bytes its op appended, not the value.
	// 4 carries the cluster heartbeat in a binary head instead of gob. 5
	// drops the per-peer link-health rows that heartbeat carried. 6 moves
	// the agent's read from a gob head to a binary one, its payload to the
	// body.
	WireVersion = 6

	frameHeaderLen = 24

	maxTypeLen = 255
	maxErrLen  = 4096

	// MaxHead bounds a frame's head: codec heads are tens of bytes; the
	// bound leaves room for the cold gob heads (ctl.* replies) that still
	// ride here.
	MaxHead = 4 << 20
	// slabHeadMax is the largest head a client draws from the slab (its
	// smallest class); a larger one is GC-owned and handed on uncopied.
	slabHeadMax = 4 << 10
	// MaxBody bounds a frame's body at the slab's largest class, so a
	// received body always lands in a pooled buffer.
	MaxBody = tiers.SlabMaxBuf
)

const (
	kindRequest = iota
	kindResponse
	kindOneway
)

// ErrFrameTooLarge is returned (wrapped) when a message would not fit
// the frame bounds; the connection stays usable.
var ErrFrameTooLarge = errors.New("comm: frame part exceeds its wire bound")

// frameHeader is the decoded fixed header.
type frameHeader struct {
	kind    uint8
	id      uint64
	typeLen int
	errLen  int
	headLen int
	bodyLen int
}

// size is the whole frame's length on the wire.
func (h frameHeader) size() int64 {
	return int64(frameHeaderLen + h.typeLen + h.errLen + h.headLen + h.bodyLen)
}

// putFrameHeader appends the fixed header to dst.
//
//hfetch:hotpath
func putFrameHeader(dst []byte, h frameHeader) []byte {
	dst = append(dst, frameMagic0, frameMagic1, WireVersion, h.kind)
	dst = binary.BigEndian.AppendUint64(dst, h.id)
	dst = binary.BigEndian.AppendUint16(dst, uint16(h.typeLen))
	dst = binary.BigEndian.AppendUint16(dst, uint16(h.errLen))
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.headLen))
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.bodyLen))
	return dst
}

// versionError reports a peer speaking another frame version. The
// request id is kept so the refusal can be sent back as a response.
type versionError struct {
	got uint8
	id  uint64
}

func (e *versionError) Error() string {
	return fmt.Sprintf("comm: peer speaks wire version %d, this node speaks %d", e.got, WireVersion)
}

var (
	errBadMagic = errors.New("comm: bad frame magic (peer is not speaking the hfetch wire protocol)")
	errBadFrame = errors.New("comm: malformed frame header")
)

// parseFrameHeader validates and decodes the fixed header. Anything it
// rejects must close the connection: the stream cannot be resynchronized.
//
//hfetch:hotpath
func parseFrameHeader(b *[frameHeaderLen]byte) (frameHeader, error) {
	if b[0] != frameMagic0 || b[1] != frameMagic1 {
		return frameHeader{}, errBadMagic
	}
	h := frameHeader{
		kind:    b[3],
		id:      binary.BigEndian.Uint64(b[4:]),
		typeLen: int(binary.BigEndian.Uint16(b[12:])),
		errLen:  int(binary.BigEndian.Uint16(b[14:])),
	}
	if b[2] != WireVersion {
		return frameHeader{}, &versionError{got: b[2], id: h.id}
	}
	headLen, bodyLen := binary.BigEndian.Uint32(b[16:]), binary.BigEndian.Uint32(b[20:])
	if h.kind > kindOneway || h.typeLen > maxTypeLen || h.errLen > maxErrLen ||
		headLen > MaxHead || bodyLen > MaxBody {
		return frameHeader{}, errBadFrame
	}
	h.headLen, h.bodyLen = int(headLen), int(bodyLen)
	return h, nil
}

// checkFrame rejects a message that cannot be framed, before any byte
// of it is written.
func checkFrame(msgType string, head, body []byte) error {
	switch {
	case len(msgType) > maxTypeLen:
		return fmt.Errorf("%w: message type of %d bytes (max %d)", ErrFrameTooLarge, len(msgType), maxTypeLen)
	case len(head) > MaxHead:
		return fmt.Errorf("%w: head of %d bytes (max %d)", ErrFrameTooLarge, len(head), MaxHead)
	case len(body) > MaxBody:
		return fmt.Errorf("%w: body of %d bytes (max %d)", ErrFrameTooLarge, len(body), MaxBody)
	}
	return nil
}

// frame is one received frame. typ aliases the reader's scratch and is
// valid until the next read; head and body are the receiver's own
// buffers, slabHead says whether head came from the slab.
type frame struct {
	frameHeader
	typ      []byte
	errMsg   string
	head     []byte
	body     []byte
	slabHead bool
}

// recycle returns the frame's slab-drawn buffers: the body always, the
// head when it was drawn there.
func (f *frame) recycle() {
	if f.slabHead {
		tiers.SlabPut(f.head)
	}
	tiers.SlabPut(f.body)
	f.head, f.body = nil, nil
}

// frameReader reads frames off one connection. It is owned by a single
// goroutine. It reads the bare connection (no bufio), so a body goes
// from the socket into its slab buffer with no intermediate copy.
type frameReader struct {
	r  io.Reader
	st *Stats
	// slabHead draws every head from the slab (serving side: the request
	// is recycled once its response is written); without it only a head
	// of up to slabHeadMax is, and a larger one comes from the GC heap.
	slabHead bool
	hdr      [frameHeaderLen]byte
	meta     []byte // message type + error scratch, reused across frames
}

// read returns the next frame. Any error is terminal for the
// connection.
func (r *frameReader) read() (frame, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return frame{}, err
	}
	h, err := parseFrameHeader(&r.hdr)
	if err != nil {
		return frame{}, err
	}
	f := frame{frameHeader: h, slabHead: r.slabHead || h.headLen <= slabHeadMax}
	if n := h.typeLen + h.errLen; n > 0 {
		if cap(r.meta) < n {
			r.meta = make([]byte, n)
		}
		r.meta = r.meta[:n]
		if _, err := io.ReadFull(r.r, r.meta); err != nil {
			return frame{}, unexpectedEOF(err)
		}
		f.typ = r.meta[:h.typeLen]
		f.errMsg = string(r.meta[h.typeLen:])
	}
	if h.headLen > 0 {
		if f.slabHead {
			f.head = tiers.SlabGet(int64(h.headLen))
		} else {
			f.head = make([]byte, h.headLen)
		}
	}
	if h.bodyLen > 0 {
		f.body = tiers.SlabGet(int64(h.bodyLen))
	}
	for _, part := range [2][]byte{f.head, f.body} {
		if _, err := io.ReadFull(r.r, part); err != nil {
			f.recycle()
			return frame{}, unexpectedEOF(err)
		}
	}
	r.st.AddBytesIn(h.size())
	return f, nil
}

// unexpectedEOF marks an EOF inside a frame as the truncation it is
// (only an EOF between frames is a clean close).
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// frameWriter serializes frames onto one connection: header, message
// type, error and head go out with the body in a single vectored write
// (writev on a *net.TCPConn), so a body passed by reference is never
// copied in user space.
type frameWriter struct {
	w  io.Writer
	st *Stats

	mu   sync.Mutex
	hdr  []byte // header + type + error scratch, reused under mu
	arr  [3][]byte
	bufs net.Buffers
}

// write sends one frame; the caller has passed checkFrame. An error
// leaves the stream mid-frame: the caller must close the connection.
//
//hfetch:hotpath
func (w *frameWriter) write(kind uint8, id uint64, msgType, errMsg string, head, body []byte) error {
	if len(errMsg) > maxErrLen {
		errMsg = errMsg[:maxErrLen]
	}
	h := frameHeader{
		kind: kind, id: id,
		typeLen: len(msgType), errLen: len(errMsg),
		headLen: len(head), bodyLen: len(body),
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hdr = putFrameHeader(w.hdr[:0], h)
	w.hdr = append(w.hdr, msgType...)
	w.hdr = append(w.hdr, errMsg...)
	w.bufs = append(w.arr[:0], w.hdr)
	if len(head) > 0 {
		w.bufs = append(w.bufs, head)
	}
	if len(body) > 0 {
		w.bufs = append(w.bufs, body)
	}
	_, err := w.bufs.WriteTo(w.w)
	w.arr = [3][]byte{} // drop the references to head and body
	if err != nil {
		return err
	}
	w.st.AddBytesOut(h.size())
	return nil
}
