// Package enc is the byte layout every container in the tree shares:
// big-endian integers, uint16-length-prefixed strings, uint32-length-
// prefixed byte strings, and on top of them the enrollment tuple
//
//	2  id length, id bytes
//	2  device-id length, device-id bytes
//	4  template length, template bytes (minutiae codec)
//
// which the wire protocol (matchsvc: enroll and batch items), the
// write-ahead log record and replica sync page (wal) and the FPGD
// template-set stream (gallery) all carry. Writer and Reader are the
// one append cursor and the one bounds-checked read cursor those
// formats are written and parsed with.
package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShort reports a read past the end of the buffer: the input is
// truncated, or a length field in it is corrupt.
var ErrShort = errors.New("enc: short buffer")

// Writer appends encoded values to Buf. The numeric and raw-bytes
// appenders reuse Buf's capacity and stay off the heap.
type Writer struct {
	Buf []byte
}

//fpvet:hotpath
func (w *Writer) Byte(v byte) { w.Buf = append(w.Buf, v) }

//fpvet:hotpath
func (w *Writer) Uint16(v uint16) { w.Buf = binary.BigEndian.AppendUint16(w.Buf, v) }

//fpvet:hotpath
func (w *Writer) Uint32(v uint32) { w.Buf = binary.BigEndian.AppendUint32(w.Buf, v) }

//fpvet:hotpath
func (w *Writer) Uint64(v uint64) { w.Buf = binary.BigEndian.AppendUint64(w.Buf, v) }

//fpvet:hotpath
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// String appends a uint16-length-prefixed string.
func (w *Writer) String(s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("enc: string of %d bytes too long", len(s))
	}
	w.Uint16(uint16(len(s)))
	w.Buf = append(w.Buf, s...)
	return nil
}

// Bytes appends a uint32-length-prefixed byte string.
//
//fpvet:hotpath
func (w *Writer) Bytes(b []byte) {
	w.Uint32(uint32(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Enrollment appends one enrollment tuple; tpl is the template in the
// minutiae codec.
func (w *Writer) Enrollment(id, deviceID string, tpl []byte) error {
	if err := w.String(id); err != nil {
		return err
	}
	if err := w.String(deviceID); err != nil {
		return err
	}
	w.Bytes(tpl)
	return nil
}

// Reader consumes encoded values from the front of Buf, which always
// holds what is left. Nothing is read past the end: a value that does
// not fit yields its zero value, empties Buf and latches ErrShort in
// Err, so a decoder reads its fields straight down and checks once
// before acting on them. Returned byte slices alias Buf.
type Reader struct {
	Buf []byte
	err error
}

// Err is ErrShort once any read has run past the end, else nil.
func (r *Reader) Err() error { return r.err }

// Take consumes the next n bytes.
//
//fpvet:hotpath
func (r *Reader) Take(n int) []byte {
	if n < 0 || n > len(r.Buf) {
		r.Buf, r.err = nil, ErrShort
		return nil
	}
	b := r.Buf[:n]
	r.Buf = r.Buf[n:]
	return b
}

//fpvet:hotpath
func (r *Reader) Byte() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

//fpvet:hotpath
func (r *Reader) Uint16() uint16 {
	if b := r.Take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

//fpvet:hotpath
func (r *Reader) Uint32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

//fpvet:hotpath
func (r *Reader) Uint64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

//fpvet:hotpath
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// String consumes a uint16-length-prefixed string.
func (r *Reader) String() string { return string(r.Take(int(r.Uint16()))) }

// Bytes consumes a uint32-length-prefixed byte string.
//
//fpvet:hotpath
func (r *Reader) Bytes() []byte { return r.Take(int(r.Uint32())) }

// Count consumes a uint32 item count for items of at least minSize
// bytes each, failing on one the rest of the buffer cannot hold — so a
// corrupt count is an error before it is an allocation.
func (r *Reader) Count(minSize int) int {
	n := int(r.Uint32())
	if n < 0 || n > len(r.Buf)/minSize {
		r.Buf, r.err = nil, ErrShort
		return 0
	}
	return n
}

// EnrollmentMinSize is the encoded size of an enrollment tuple with
// every field empty.
const EnrollmentMinSize = 2 + 2 + 4

// Enrollment consumes one enrollment tuple; tpl aliases Buf.
func (r *Reader) Enrollment() (id, deviceID string, tpl []byte) {
	return r.String(), r.String(), r.Bytes()
}
