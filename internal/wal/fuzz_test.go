package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"fpinterop/internal/enc"
	"fpinterop/internal/minutiae"
)

// pinBytes reads one file of the committed parent-written directory.
func pinBytes(f *testing.F, name string) []byte {
	f.Helper()
	data, err := os.ReadFile(filepath.Join(pinDir, name))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzDecodeRecord feeds DecodeRecord — the decoder behind both log
// replay and the replica sync page — arbitrary bodies. It must never
// panic or read outside its input, and whatever it accepts must
// re-encode to exactly the bytes it consumed: one layout, both ways.
func FuzzDecodeRecord(f *testing.F) {
	// Seeds: every body in the pinned log (enroll, remove, the two
	// enrolls of a batch), then the damage the corruption tests inflict
	// — a flipped byte mid-body, a truncation, an unknown op, a rotted
	// inner length.
	log := pinBytes(f, logName)
	lr, err := newLogReader(bytes.NewReader(log))
	if err != nil {
		f.Fatal(err)
	}
	for {
		before := lr.off
		if _, err := lr.next(); err != nil {
			break
		}
		body := log[before+8 : lr.off]
		f.Add(append([]byte(nil), body...))
		f.Add(append([]byte(nil), body[:len(body)/2]...))
		flipped := append([]byte(nil), body...)
		flipped[len(flipped)/2] ^= 0xFF
		f.Add(flipped)
		badOp := append([]byte(nil), body...)
		badOp[8] = 9
		f.Add(badOp)
		badLen := append([]byte(nil), body...)
		badLen[9], badLen[10] = 0xFF, 0xFF
		f.Add(badLen)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		r := enc.Reader{Buf: body}
		rec, err := DecodeRecord(&r)
		if err != nil {
			return
		}
		consumed := body[:len(body)-len(r.Buf)]
		var w enc.Writer
		if err := rec.AppendTo(&w); err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if !bytes.Equal(w.Buf, consumed) {
			t.Fatalf("decoded %+v from %x, re-encoded as %x", rec, consumed, w.Buf)
		}
	})
}

// FuzzLogReader feeds logReader — the framing behind log replay and
// the replica tail — arbitrary files. It must never panic, never size
// its body buffer past maxBody, and stop at the first record that is
// not a whole valid frame: every record it returns re-frames to exactly
// the bytes it consumed, it ends in io.EOF only at the end of the file
// and in errTornTail anywhere else, and the file cut back to the last
// good record (what replay truncates it to) reads as a clean log.
func FuzzLogReader(f *testing.F) {
	// Seeds: the pinned log (header, then length prefix, CRC and body
	// per record), then the damage a crash or rot leaves — a torn tail,
	// a flipped length prefix, checksum or body byte, an implausible
	// length, a bad magic, a bare header.
	log := pinBytes(f, logName)
	f.Add(log)
	f.Add(log[:headerSize])
	f.Add(log[:len(log)-3])
	for _, at := range []int{headerSize + 1, headerSize + 5, headerSize + 12, len(log) / 2} {
		flipped := append([]byte(nil), log...)
		flipped[at] ^= 0xFF
		f.Add(flipped)
	}
	huge := append([]byte(nil), log...)
	copy(huge[headerSize:], []byte{0x7F, 0xFF, 0xFF, 0xFF})
	f.Add(huge)
	badMagic := append([]byte(nil), log...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	f.Fuzz(func(t *testing.T, data []byte) {
		read := func(data []byte) (int, int64, error) {
			lr, err := newLogReader(bytes.NewReader(data))
			if err != nil {
				return 0, 0, err
			}
			n := 0
			for {
				before := lr.off
				rec, err := lr.next()
				if cap(lr.body) > maxBody {
					t.Fatalf("body buffer grew to %d bytes", cap(lr.body))
				}
				if err != nil {
					return n, lr.off, err
				}
				var w enc.Writer
				if err := appendFramed(&w, rec); err != nil {
					t.Fatalf("record %d does not re-frame: %v", n, err)
				}
				if !bytes.Equal(w.Buf, data[before:lr.off]) {
					t.Fatalf("record %d read from %x re-frames as %x", n, data[before:lr.off], w.Buf)
				}
				n++
			}
		}
		n, off, err := read(data)
		switch {
		case off == 0:
			return // no header: nothing is replayed
		case errors.Is(err, io.EOF):
			if off != int64(len(data)) {
				t.Fatalf("clean end at %d of %d bytes", off, len(data))
			}
		case errors.Is(err, errTornTail):
			if off >= int64(len(data)) {
				t.Fatalf("torn tail reported at the end of the file (%d bytes)", off)
			}
		default:
			t.Fatalf("read stopped with %v", err)
		}
		if again, end, err := read(data[:off]); again != n || end != off || err != io.EOF {
			t.Fatalf("log cut to its last good record reads %d records to %d (%v); want %d to %d", again, end, err, n, off)
		}
	})
}

// FuzzDecodeSnapshot feeds DecodeSnapshot — the FPWS header plus the
// FPGD stream behind it, read at every startup and every replica
// bootstrap, neither checksummed — arbitrary streams. It must never
// panic, never allocate for more entries than the stream can hold, and
// return only templates that validate.
func FuzzDecodeSnapshot(f *testing.F) {
	snap := pinBytes(f, snapName)
	f.Add(snap)
	f.Add([]byte("garbage")) // TestCorruptSnapshotRejected's input
	for _, n := range []int{3, snapHeaderSize, snapHeaderSize + 6, snapHeaderSize + 10, len(snap) / 2, len(snap) - 1} {
		f.Add(append([]byte(nil), snap[:n]...))
	}
	hugeCount := append([]byte(nil), snap...)
	copy(hugeCount[snapHeaderSize+6:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(hugeCount)
	badVersion := append([]byte(nil), snap...)
	badVersion[5] = 9
	f.Add(badVersion)
	badTemplate := append([]byte(nil), snap...)
	badTemplate[len(badTemplate)-40] ^= 0xFF
	f.Add(badTemplate)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, entries, _, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if len(entries) > len(data)/enc.EnrollmentMinSize {
			t.Fatalf("%d entries out of %d bytes", len(entries), len(data))
		}
		for i, e := range entries {
			if e.Template == nil {
				t.Fatalf("entry %d (%q) has no template", i, e.ID)
			}
			if _, err := minutiae.Marshal(e.Template); err != nil {
				t.Fatalf("entry %d (%q) holds an invalid template: %v", i, e.ID, err)
			}
		}
	})
}
