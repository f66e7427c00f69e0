package matchsvc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fpinterop/internal/enc"
	"fpinterop/internal/gallery"
)

// readFrame must never panic on arbitrary bytes: the server reads frames
// straight off the network.
func TestReadFrameNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("readFrame panicked: %v", r)
			}
		}()
		_, _, _ = readFrame(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// retiredOpcodes are the request opcodes earlier protocol revisions
// assigned and this one refuses: 0x02 (match two carried templates),
// 0x03 (enroll one template, now a one-item OpEnrollBatch), 0x05
// (identify without statistics), 0x0A (scan) and 0x0B (has). The
// numbers are never reused.
var retiredOpcodes = []byte{0x02, 0x03, 0x05, 0x0A, 0x0B}

// FuzzDispatch drives the server's request decoder — every opcode over
// arbitrary bodies — against a populated, WAL-backed store (so the two
// sync ops decode too). It must never panic and must always answer a
// defined status; a retired opcode must additionally answer the
// unknown-opcode error without reaching the backend, whatever its body.
// Seeds: one valid body per opcode in use, the bodies the retired
// opcodes used to carry, truncations of each, and the random
// (opcode, payload) pairs that used to be a quick.Check beside this
// target.
func FuzzDispatch(f *testing.F) {
	fx := pinFixture()
	body := func(build func(w *enc.Writer) error) []byte {
		var w enc.Writer
		if err := build(&w); err != nil {
			f.Fatal(err)
		}
		return w.Buf
	}
	seeds := []struct {
		op   byte
		body []byte
	}{
		{OpPing, nil},
		{0x03, body(gallery.Export{ID: "dave", DeviceID: "D0", Template: fx[0].Template}.AppendTo)}, // retired single enroll
		{OpVerify, body(func(w *enc.Writer) error {
			if err := w.String("alice"); err != nil {
				return err
			}
			return putTemplate(w, fx[0].Template)
		})},
		{OpRemove, body(func(w *enc.Writer) error { return w.String("carol") })},
		{OpCount, nil},
		{OpIdentifyEx, body(func(w *enc.Writer) error {
			w.Uint32(2)
			return putTemplate(w, fx[2].Template)
		})},
		{OpEnrollBatch, body(func(w *enc.Writer) error {
			w.Uint32(2)
			if err := (gallery.Export{ID: "erin", DeviceID: "D1", Template: fx[1].Template}).AppendTo(w); err != nil {
				return err
			}
			return gallery.Export{ID: "alice", DeviceID: "D2", Template: fx[2].Template}.AppendTo(w) // a duplicate
		})},
		{OpStats, nil},
		{OpHello, helloVersion[:]}, // a second hello is just another unknown opcode
		{OpSyncSnapshot, body(func(w *enc.Writer) error { w.Uint64(0); w.Uint64(0); w.Uint32(64); return nil })},
		{OpSyncTail, body(func(w *enc.Writer) error { w.Uint64(3); w.Uint32(0); return nil })},
		{0x02, body(func(w *enc.Writer) error {
			if err := putTemplate(w, fx[0].Template); err != nil {
				return err
			}
			return putTemplate(w, fx[1].Template)
		})},
		{0x05, body(func(w *enc.Writer) error { w.Uint32(2); return putTemplate(w, fx[2].Template) })},
		{0x0A, []byte{0, 0, 0, 0, 0, 10}}, // afterID "", max 10
		{0x0B, body(func(w *enc.Writer) error { return w.String("alice") })},
	}
	for _, sd := range seeds {
		f.Add(sd.op, sd.body)
		if n := len(sd.body); n > 0 {
			f.Add(sd.op, sd.body[:n-1])
			f.Add(sd.op, sd.body[:n/2])
		}
	}
	rnd := rand.New(rand.NewSource(2013))
	for i := 0; i < 300; i++ {
		payload := make([]byte, rnd.Intn(50))
		rnd.Read(payload)
		f.Add(byte(rnd.Intn(256)), payload)
	}

	srv := NewServer(pinWALStore(f), nil)
	// Any backend call on this one dereferences a nil interface.
	unreachable := NewBackendServer(struct{ Backend }{}, nil)
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		var w enc.Writer
		if status, _ := srv.dispatch(context.Background(), op, payload, &w); status > StatusSnapshotExpired {
			t.Fatalf("dispatch(0x%02x) answered undefined status 0x%02x", op, status)
		}
		if bytes.IndexByte(retiredOpcodes, op) < 0 {
			return
		}
		w.Buf = w.Buf[:0]
		status, resp := unreachable.dispatch(context.Background(), op, payload, &w)
		if err := decodeResponse(status, resp, nil); status != StatusError || !strings.Contains(err.Error(), "unknown opcode") {
			t.Fatalf("retired opcode 0x%02x answered status 0x%02x: %v", op, status, err)
		}
	})
}

// sealFrame returns the enveloped payload (everything after the 5-byte
// frame header) writeMuxFrame puts on the wire.
func sealFrame(tb testing.TB, op byte, id uint64, budget uint32, body []byte) []byte {
	tb.Helper()
	var wire bytes.Buffer
	var hdr [muxFrameHdrSize]byte
	if err := writeMuxFrame(&wire, op, id, budget, body, &hdr); err != nil {
		tb.Fatal(err)
	}
	return wire.Bytes()[5:]
}

// TestMuxCRCIsCRC32COverOpIDBody pins the checksum's definition — the
// wire format: opcode, request ID, budget, body — independently of how
// muxCRC computes it.
func TestMuxCRCIsCRC32COverOpIDBody(t *testing.T) {
	f := func(op byte, id uint64, budget uint32, body []byte) bool {
		ref := binary.BigEndian.AppendUint64([]byte{op}, id)
		ref = binary.BigEndian.AppendUint32(ref, budget)
		return muxCRC(op, id, budget, body) == crc32.Checksum(append(ref, body...), crc32.MakeTable(crc32.Castagnoli))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzOpenMuxEnvelope: the envelope check reads bytes straight off the
// network on both sides of a connection. It must never panic, must
// refuse anything it did not seal with ErrCorruptFrame, and whatever it
// accepts must re-seal to the very same bytes. Seeds are the corrupt
// frames the mux error-path tests inject.
func FuzzOpenMuxEnvelope(f *testing.F) {
	sealed := sealFrame(f, OpVerify, 7, 250, []byte("body"))
	f.Add(byte(OpVerify), sealed)
	f.Add(byte(OpPing), sealFrame(f, OpPing, 1, 0, nil))
	f.Add(byte(OpIdentifyEx), sealFrame(f, OpIdentifyEx, 2, 0xFFFFFFFF, []byte("body"))) // the largest budget
	f.Add(byte(StatusNotFound), sealFrame(f, StatusNotFound, 1<<40, 0, []byte{0, 1, 'x'}))
	f.Add(byte(0x03), sealed)                                          // right envelope, wrong opcode
	f.Add(byte(OpVerify), sealed[:muxEnvelopeSize-1])                  // below envelope size
	f.Add(byte(OpVerify), sealed[:9])                                  // cut inside the budget field
	f.Add(byte(OpVerify), sealed[:11])                                 // one byte short of the whole budget
	f.Add(byte(OpVerify), sealed[:len(sealed)-1])                      // truncated body
	f.Add(byte(OpVerify), append(sealed[:len(sealed):len(sealed)], 0)) // trailing byte
	for _, bit := range []int{0, 63, 64, 95, 96, 127, 128} {           // request ID, budget, CRC, first body byte
		flipped := bytes.Clone(sealed)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(byte(OpVerify), flipped)
	}
	f.Add(byte(0), []byte(nil))
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		id, budget, body, err := openMuxEnvelope(op, payload)
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("refusal is not ErrCorruptFrame: %v", err)
			}
			return
		}
		if len(payload) > maxFrame {
			return // accepted, but too large to re-seal: readFrameHdr caps frames first
		}
		if again := sealFrame(t, op, id, budget, body); !bytes.Equal(again, payload) {
			t.Fatalf("accepted envelope %x re-seals to %x", payload, again)
		}
	})
}

// FuzzDecodeResponse drives the client's response decoder with every
// status byte over arbitrary payloads (truncated, oversized counts,
// garbage) through the result decoders with variable-length output. It
// must never panic; a failure status must always be an error; a coded
// status must wrap exactly its sentinel — so a relaying server answers
// the same code — and an unknown status must not pass for a server
// answer.
func FuzzDecodeResponse(f *testing.F) {
	var reply enc.Writer
	if err := encodeIdentify(&reply, []gallery.Candidate{{ID: "subject-0001", DeviceID: "D0", Score: 0.5}},
		gallery.IdentifyStats{GallerySize: 12, Scanned: 12, ShardsQueried: 2, ShardsFailed: 1}); err != nil {
		f.Fatal(err)
	}
	var msg enc.Writer
	_ = msg.String(`verify "gallery: enrollment ID already exists": gallery: enrollment not found`)
	for status := 0; status <= StatusSnapshotExpired+1; status++ {
		f.Add(byte(status), reply.Buf)
		f.Add(byte(status), msg.Buf)
		f.Add(byte(status), msg.Buf[:len(msg.Buf)-1])
		f.Add(byte(status), []byte{0xff})
		f.Add(byte(status), []byte(nil))
	}
	f.Add(byte(StatusOK), reply.Buf[:len(reply.Buf)-6])   // cut inside the coverage tail
	f.Add(byte(StatusOK), []byte{0xff, 0xff, 0xff, 0xff}) // count far beyond the payload
	overCount := append([]byte(nil), reply.Buf...)
	overCount[19] = 2 // candidate count one beyond the payload
	f.Add(byte(StatusOK), overCount)
	f.Add(byte(0x7e), []byte(nil))
	decoders := []func(*enc.Reader) error{
		nil,
		func(r *enc.Reader) error { _, _, err := decodeIdentify(r); return err },
		func(r *enc.Reader) error { _, err := decodeServiceStats(r); return err },
		func(r *enc.Reader) error { _, err := decodeMatch(r); return err },
	}
	f.Fuzz(func(t *testing.T, status byte, resp []byte) {
		for _, decode := range decoders {
			err := decodeResponse(status, resp, decode)
			switch {
			case status == StatusOK:
				if errors.Is(err, ErrRemote) {
					t.Fatalf("StatusOK reported as a remote error: %v", err)
				}
			case err == nil:
				t.Fatalf("status 0x%02x decoded to success", status)
			case status > StatusSnapshotExpired:
				if errors.Is(err, ErrRemote) || StatusFor(err) != StatusError {
					t.Fatalf("unknown status 0x%02x passed for a server answer: %v", status, err)
				}
			default:
				if !errors.Is(err, ErrRemote) || StatusFor(err) != status {
					t.Fatalf("status 0x%02x: %v relays as 0x%02x", status, err, StatusFor(err))
				}
				if errors.Is(err, gallery.ErrNotFound) != (status == StatusNotFound) {
					t.Fatalf("status 0x%02x: errors.Is(%v, ErrNotFound) is wrong", status, err)
				}
			}
		}
	})
}
