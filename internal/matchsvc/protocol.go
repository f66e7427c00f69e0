// Package matchsvc implements a networked fingerprint matching service:
// a TCP server fronting a central enrollment gallery, and a client
// library for edge capture stations. This is the deployment architecture
// the paper's discussion section asks about — heterogeneous sensors at
// the edge, one central matcher and gallery — so the interoperability
// effects quantified by the study surface as service-level error rates.
//
// The wire protocol is deliberately simple and self-contained: each
// message is a frame
//
//	uint32  payload length (big endian, excluding these 5 bytes)
//	uint8   opcode (request) or status (response)
//	bytes   payload
//
// After the one bare hello exchange, every payload opens with the mux
// envelope (request ID, the caller's remaining budget in milliseconds,
// CRC — see muxEnvelopeSize). Payloads are written and read with
// package enc: strings are uint16-length-prefixed UTF-8, templates the
// minutiae binary codec under a uint32 length, and an enrollment item
// is enc's enrollment tuple. Frames are capped at 1 MiB.
//
// Writes have one opcode, OpEnrollBatch: a single enrollment travels as
// a batch of one, as it reaches the Backend contract.
//
// The server side dispatches onto one ctx-first contract, Backend
// (backend.go); a store reaches it through the Local adapter.
package matchsvc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"fpinterop/internal/enc"
	"fpinterop/internal/gallery"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/wal"
)

// Opcodes for requests. What each live one means to the server and
// the client — metric label, idempotency, handler — is its row of ops.
const (
	// OpPing checks liveness.
	OpPing = 0x01
	// 0x02 (match: compare two templates carried in the request) is
	// retired — no caller ever sent it, and a stateless comparison is
	// match.HoughMatcher in the caller's own process. Like every retired
	// number it stays unused, and a server answers it with its
	// unknown-opcode error.

	// 0x03 (enroll one template) is retired: a single enrollment is an
	// OpEnrollBatch of one item. Peers built before the retirement sent
	// 0x03 for every single enrollment and still pass the version-3
	// hello, so a fleet is upgraded as a whole: mixed versions are
	// unsupported.

	// OpVerify compares a probe against one enrollment (1:1).
	OpVerify = 0x04
	// 0x05 (identify without statistics) is retired.

	// OpRemove deletes an enrollment.
	OpRemove = 0x06
	// OpCount returns the number of enrollments.
	OpCount = 0x07
	// OpIdentifyEx searches a probe against the whole gallery (1:N):
	// uint32 k and the probe in; out, uint32 gallery size, shortlist,
	// scanned and indexed 0/1, the candidates (uint32 count, then ID,
	// device ID and float64 score each), then uint32 shards queried,
	// skipped and failed (see encodeIdentify). A client that stops
	// after the candidates ignores the tail; one reading a reply
	// without it gets a short-payload error, so as with 0x03 a fleet
	// is upgraded as a whole.
	OpIdentifyEx = 0x08
	// OpEnrollBatch adds templates in one round trip, one or many (it is
	// the only enrolling opcode): uint32 count, then one enrollment
	// tuple per item. The response carries the number enrolled. The
	// whole frame reaches the backend as one EnrollBatch call, so what a
	// failure leaves behind is the backend's answer: a plain store keeps
	// the items before the failing one, a WAL-backed store commits the
	// frame as one group (one fsync) or not at all, and a router front
	// lands whole per-shard groups in parallel and names the failing
	// shard in the error.
	OpEnrollBatch = 0x09
	// 0x0A (scan: page through enrollments in ID order) and 0x0B (has:
	// is this ID enrolled) served online resharding only and are
	// retired with it.

	// OpStats returns a service-level summary (see ServiceStats): uint32
	// enrollments, uint32 shards, uint32 degraded-shard count then that
	// many strings, uint32 indexed 0/1, uint32 has-WAL 0/1 and, when
	// set, uint32 snapshot entries, uint32 replayed, uint64 truncated
	// bytes, uint32 torn tails, uint64 log bytes. Servers without a
	// stats source answer from their gallery alone.
	OpStats = 0x0C
	// OpHello opens every connection: the client sends uint32 version
	// in a bare frame and the server answers StatusOK with the uint32
	// version it will speak, after which every frame on the connection
	// carries the mux envelope (request ID + budget + CRC). A first
	// frame that is not a hello for version 3 or newer gets the
	// connection dropped: version 2's envelope has no budget field, and
	// there is no downgrade path.
	OpHello = 0x0D
	// OpSyncSnapshot ships one chunk of a consistent WAL snapshot to a
	// catching-up replica: the request carries uint64 resumeLSN (0 asks
	// the server to capture fresh state), uint64 offset, uint32 max
	// bytes; the response carries uint64 snapshot LSN, uint64 total
	// stream size, then the chunk bytes. A non-zero resumeLSN pins the
	// transfer to one capture so every chunk comes from the same
	// immutable byte stream; when that capture is gone the server
	// answers an error and the replica restarts at resumeLSN 0. Only
	// WAL-backed servers implement it.
	OpSyncSnapshot = 0x0E
	// OpSyncTail streams WAL records above an LSN: the request carries
	// uint64 afterLSN and uint32 max body bytes; the response carries
	// uint64 primary LSN, uint32 flags (bit 0 = tail truncated by
	// compaction — restart from a snapshot), uint32 count, then per
	// record a WAL record body exactly as the log holds it
	// (wal.Record.AppendTo). The server may return fewer
	// records than the budget allows to respect the frame cap; an empty
	// un-truncated page means the replica has caught up to the primary
	// LSN. Only WAL-backed servers implement it.
	OpSyncTail = 0x0F
)

// protoMuxed is the one protocol version: every post-hello frame
// carries the mux envelope, so responses may return out of order, one
// connection carries many concurrent requests, and each request names
// the time its caller will still wait. helloVersion is the hello
// payload naming it — what the client proposes and the server answers.
const protoMuxed = 3

var helloVersion = [4]byte{3: protoMuxed}

// Response status codes. Every non-OK status carries an error string
// payload for humans; the byte itself tells the client which sentinel
// the failure is, so errors.Is works across any number of wire hops
// without matching text.
const (
	// StatusOK carries a successful result payload.
	StatusOK = 0x00
	// StatusError is any failure without a code of its own.
	StatusError = 0x01
	// StatusNotFound is gallery.ErrNotFound: unknown enrollment ID.
	StatusNotFound = 0x02
	// StatusDuplicate is gallery.ErrDuplicate: enrollment ID in use.
	StatusDuplicate = 0x03
	// StatusReadOnly is ErrReadOnly: a write sent to a read replica.
	StatusReadOnly = 0x04
	// StatusSnapshotExpired is wal.ErrSnapshotExpired: a resumed
	// snapshot transfer whose capture the primary no longer holds.
	StatusSnapshotExpired = 0x05
)

// maxFrame bounds a frame payload (1 MiB — a template is ≤ ~32 KiB).
const maxFrame = 1 << 20

// pageBudget leaves headroom under the frame cap for a paged
// response's fixed fields, count prefix and per-item framing.
const pageBudget = maxFrame - 4096

var (
	// ErrFrameTooLarge reports an oversized frame.
	ErrFrameTooLarge = errors.New("matchsvc: frame exceeds 1 MiB cap")
	// ErrRemote wraps a server-reported error on the client side.
	ErrRemote = errors.New("matchsvc: remote error")
	// ErrTransport classifies connection-level failures — dial errors,
	// torn or truncated frames, resets, corrupt envelopes — as distinct
	// from server-reported errors (ErrRemote) and caller cancellation.
	// Only transport failures are safe to retry, and only for
	// idempotent operations (see Retry).
	ErrTransport = errors.New("matchsvc: transport failure")
	// ErrCorruptFrame reports a mux frame whose CRC does not cover its
	// contents: bytes were damaged in transit, so the connection cannot
	// be trusted and is retired.
	ErrCorruptFrame = errors.New("matchsvc: corrupt frame")
	// ErrClosed reports a request on a client after Close.
	ErrClosed = errors.New("matchsvc: client closed")
	// ErrReadOnly reports a write refused by a server that only applies
	// its primary's log (a read replica); write to the primary.
	ErrReadOnly = errors.New("matchsvc: server is a read-only replica; write to the primary")
)

// statusSentinels pairs each coded status with the sentinel it stands
// for: the server picks the status with errors.Is, the client wraps the
// sentinel back onto the error it returns.
var statusSentinels = [...]struct {
	status byte
	err    error
}{
	{StatusNotFound, gallery.ErrNotFound},
	{StatusDuplicate, gallery.ErrDuplicate},
	{StatusReadOnly, ErrReadOnly},
	{StatusSnapshotExpired, wal.ErrSnapshotExpired},
}

// StatusFor returns the response status that reports err: the code of
// the sentinel err wraps, else StatusError (StatusOK for nil). Anything
// but StatusError is an answer from a working backend — the health
// trackers in shard and replica count it as proof of life.
func StatusFor(err error) byte {
	if err == nil {
		return StatusOK
	}
	for _, s := range statusSentinels {
		if errors.Is(err, s.err) {
			return s.status
		}
	}
	return StatusError
}

// transportErr classifies err as a retryable transport failure. Context
// errors pass through unchanged: cancellation is the caller's decision,
// never retried.
func transportErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrTransport) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrTransport, err)
}

// The mux envelope prefixes every post-hello frame payload:
//
//	uint64  request ID (client-assigned, echoed by the response)
//	uint32  budget: milliseconds the caller will still wait, 0 = no
//	        bound (always 0 on responses). Relative, so the two clocks
//	        need not agree; the server runs the request under a context
//	        that expires when the budget does.
//	uint32  CRC-32C over the opcode, request ID, budget and body
//	bytes   body (the operation's payload)
//
// The CRC is what lets the fault-injection suite promise "zero acked
// operations mis-answered": a flipped byte anywhere in the envelope or
// body fails the checksum instead of decoding into a plausible wrong
// answer, and a flipped length prefix desynchronizes framing into a
// torn-frame error. Either way the connection is retired and in-flight
// calls get typed errors.
const muxEnvelopeSize = 16

// crcTable is the Castagnoli polynomial (hardware-accelerated on
// amd64/arm64), matching the WAL's record checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// muxCRC checksums a frame's opcode (or status), request ID, budget and
// body exactly as sealed on the wire. Covering the op byte matters: a
// corrupted opcode with an intact envelope would dispatch the wrong
// operation yet answer the right request ID — a mis-answer no caller
// could detect. Covering the budget keeps a flipped bit from turning a
// bounded request into an unbounded one.
//
// The thirteen prefix bytes go through the table by hand: staging them
// in a local array for crc32.Update would move that array to the heap,
// one allocation per frame in each direction.
//
//fpvet:hotpath
func muxCRC(op byte, id uint64, budget uint32, body []byte) uint32 {
	crc := ^uint32(0)
	crc = crcTable[byte(crc)^op] ^ crc>>8
	for shift := 56; shift >= 0; shift -= 8 {
		crc = crcTable[byte(crc)^byte(id>>shift)] ^ crc>>8
	}
	for shift := 24; shift >= 0; shift -= 8 {
		crc = crcTable[byte(crc)^byte(budget>>shift)] ^ crc>>8
	}
	return crc32.Update(^crc, crcTable, body)
}

// muxFrameHdrSize is the on-wire prefix of a mux frame: the 5-byte
// frame header plus the 16-byte envelope.
const muxFrameHdrSize = 5 + muxEnvelopeSize

// writeMuxFrame emits one enveloped frame: header and envelope are
// assembled in the caller's scratch so the whole prefix leaves in one
// Write (into the connection's buffered writer), then the body.
//
//fpvet:hotpath
func writeMuxFrame(w io.Writer, op byte, id uint64, budget uint32, body []byte, hdr *[muxFrameHdrSize]byte) error {
	if len(body)+muxEnvelopeSize > maxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+muxEnvelopeSize))
	hdr[4] = op
	binary.BigEndian.PutUint64(hdr[5:13], id)
	binary.BigEndian.PutUint32(hdr[13:17], budget)
	binary.BigEndian.PutUint32(hdr[17:21], muxCRC(op, id, budget, body))
	if _, err := w.Write(hdr[:]); err != nil {
		// Returned raw: the (non-hot) callers add context and classify
		// it as a transport failure.
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// openMuxEnvelope validates and splits an enveloped payload arriving
// under op. The body aliases payload.
func openMuxEnvelope(op byte, payload []byte) (id uint64, budget uint32, body []byte, err error) {
	if len(payload) < muxEnvelopeSize {
		return 0, 0, nil, fmt.Errorf("%w: %d-byte payload below envelope size", ErrCorruptFrame, len(payload))
	}
	id = binary.BigEndian.Uint64(payload[:8])
	budget = binary.BigEndian.Uint32(payload[8:12])
	crc := binary.BigEndian.Uint32(payload[12:16])
	body = payload[muxEnvelopeSize:]
	if got := muxCRC(op, id, budget, body); got != crc {
		return 0, 0, nil, fmt.Errorf("%w: crc %08x, want %08x", ErrCorruptFrame, got, crc)
	}
	return id, budget, body, nil
}

// writeFrame emits one bare frame. Only the hello exchange uses it;
// everything after goes through writeMuxFrame.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	if len(payload) > maxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = op
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("matchsvc: write header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("matchsvc: write payload: %w", err)
		}
	}
	return nil
}

// readFrame reads one frame into a fresh buffer.
func readFrame(r io.Reader) (op byte, payload []byte, err error) {
	var hdr [5]byte
	return readFrameHdr(r, &hdr)
}

// readFrameHdr is readFrame with a caller-owned header buffer: a local
// header array escapes through the io.Reader call, so the
// per-connection read loops pass a long-lived one to stay off the heap.
func readFrameHdr(r io.Reader, hdr *[5]byte) (op byte, payload []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err // EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("matchsvc: read payload: %w", err)
	}
	return hdr[4], payload, nil
}

// frameScratch recycles an outbound payload writer, so steady-state
// request building and response building stop allocating per message.
// Clients borrow one per request, servers one per dispatched request.
type frameScratch struct {
	w enc.Writer
}

var framePool = sync.Pool{New: func() any { return new(frameScratch) }}

// acquireFrameScratch returns a scratch with an empty writer.
func acquireFrameScratch() *frameScratch {
	framesOutstanding.Add(1)
	fs := framePool.Get().(*frameScratch)
	fs.w.Buf = fs.w.Buf[:0]
	return fs
}

func releaseFrameScratch(fs *frameScratch) {
	framesOutstanding.Add(-1)
	framePool.Put(fs)
}

// putTemplate appends a template field: the minutiae codec's bytes
// under a uint32 length. (Enrollment items go through
// gallery.Export.AppendTo instead — the tuple is laid out in enc.)
func putTemplate(w *enc.Writer, t *minutiae.Template) error {
	data, err := minutiae.Marshal(t)
	if err != nil {
		return err
	}
	w.Bytes(data)
	return nil
}

func readTemplate(r *enc.Reader) (*minutiae.Template, error) {
	data := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return minutiae.Unmarshal(data)
}
