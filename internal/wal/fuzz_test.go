package wal

import (
	"bytes"
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
		_, entries, err := DecodeSnapshot(data)
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
