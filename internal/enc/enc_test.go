package enc

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	if err := w.String("hello"); err != nil {
		t.Fatal(err)
	}
	w.Byte(7)
	w.Uint16(65000)
	w.Uint32(42)
	w.Uint64(1 << 40)
	w.Float64(3.25)
	w.Bytes([]byte{9, 8})
	if err := w.Enrollment("alice", "D0", []byte("tpl")); err != nil {
		t.Fatal(err)
	}
	r := Reader{Buf: w.Buf}
	if s, b, u16, u32, u64, f, raw := r.String(), r.Byte(), r.Uint16(), r.Uint32(), r.Uint64(), r.Float64(), r.Bytes(); s != "hello" ||
		b != 7 || u16 != 65000 || u32 != 42 || u64 != 1<<40 || f != 3.25 || !bytes.Equal(raw, []byte{9, 8}) {
		t.Fatalf("read back %q %d %d %d %d %v %v", s, b, u16, u32, u64, f, raw)
	}
	if id, dev, tpl := r.Enrollment(); id != "alice" || dev != "D0" || string(tpl) != "tpl" {
		t.Fatalf("enrollment read back as %q %q %q", id, dev, tpl)
	}
	if r.Err() != nil || len(r.Buf) != 0 {
		t.Fatalf("after the last value: err %v, %d bytes left", r.Err(), len(r.Buf))
	}
}

// TestShortReadsLatch: a read past the end yields zero values from then
// on and one error, whatever is read next.
func TestShortReadsLatch(t *testing.T) {
	r := Reader{Buf: []byte{0, 0, 0}}
	if v := r.Uint32(); v != 0 || r.Err() != ErrShort {
		t.Fatalf("short uint32 = %d, %v", v, r.Err())
	}
	if b, s := r.Byte(), r.String(); b != 0 || s != "" || r.Err() != ErrShort || len(r.Buf) != 0 {
		t.Fatalf("reads after the failure = %d, %q, %v", b, s, r.Err())
	}
	// A length prefix beyond the buffer is the same failure.
	r = Reader{Buf: []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2}}
	if b := r.Bytes(); b != nil || r.Err() != ErrShort {
		t.Fatalf("oversized bytes = %v, %v", b, r.Err())
	}
}

func TestCountRefusesWhatTheBufferCannotHold(t *testing.T) {
	r := Reader{Buf: append([]byte{0, 0, 0, 3}, make([]byte, 24)...)}
	if n := r.Count(8); n != 3 || r.Err() != nil {
		t.Fatalf("count = %d, %v", n, r.Err())
	}
	r = Reader{Buf: append([]byte{0, 0, 0, 4}, make([]byte, 24)...)}
	if n := r.Count(8); n != 0 || r.Err() != ErrShort {
		t.Fatalf("count one beyond the buffer = %d, %v", n, r.Err())
	}
	r = Reader{Buf: append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, make([]byte, 24)...)}
	if n := r.Count(8); n != 0 || r.Err() != ErrShort {
		t.Fatalf("corrupt count = %d, %v", n, r.Err())
	}
}

func TestStringTooLong(t *testing.T) {
	var w Writer
	if err := w.String(strings.Repeat("x", 1<<16)); err == nil || len(w.Buf) != 0 {
		t.Fatalf("64 KiB string: %v, %d bytes written", err, len(w.Buf))
	}
	if err := w.Enrollment("id", strings.Repeat("x", 1<<16), nil); err == nil {
		t.Fatal("64 KiB device id accepted")
	}
}
