package matchsvc

import (
	"bytes"
	"testing"

	"fpinterop/internal/enc"
)

// TestFrameRoundTripZeroAllocs is the asserting form of the PR-4 frame
// benchmarks: once the pooled scratch and the reused transport buffers
// are warm, building a numeric payload, sealing it into an enveloped
// frame, checking the envelope, and decoding the body performs zero heap
// allocations. String and template fields are excluded by design —
// string decoding converts (allocates) and templates go through
// minutiae.Marshal — so this test covers exactly the //fpvet:hotpath
// codec surface in protocol.go.
func TestFrameRoundTripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; asserted in non-race builds")
	}
	var wire bytes.Buffer
	var hdr [muxFrameHdrSize]byte
	raw := []byte{0xde, 0xad, 0xbe, 0xef}

	roundTrip := func() {
		fs := acquireFrameScratch()
		fs.w.Uint32(42)
		fs.w.Float64(0.5)
		fs.w.Bytes(raw)

		wire.Reset()
		if err := writeMuxFrame(&wire, OpPing, 7, 250, fs.w.Buf, &hdr); err != nil {
			t.Fatalf("writeMuxFrame: %v", err)
		}
		frame := wire.Bytes()
		id, budget, body, err := openMuxEnvelope(frame[4], frame[5:])
		if err != nil || id != 7 || budget != 250 {
			t.Fatalf("openMuxEnvelope = id %d budget %d, %v; want 7, 250", id, budget, err)
		}

		r := enc.Reader{Buf: body}
		if u, f, b := r.Uint32(), r.Float64(), r.Bytes(); r.Err() != nil || u != 42 || f != 0.5 || !bytes.Equal(b, raw) {
			t.Fatalf("read back %d, %v, %x (%v); want 42, 0.5, %x", u, f, b, r.Err(), raw)
		}
		releaseFrameScratch(fs)
	}

	// Warm the pool, the frame buffers, and bytes.Buffer's capacity.
	for i := 0; i < 10; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("frame round-trip allocates %.1f times per run; want 0", allocs)
	}
}
