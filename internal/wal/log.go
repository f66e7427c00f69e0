// Package wal makes a gallery durable with a per-shard write-ahead
// log. Every enrollment and removal is appended to a checksummed,
// length-prefixed log before the caller is acknowledged; on startup the
// log is replayed on top of the last compaction snapshot, so a crash —
// including kill -9 mid-write — loses at most the single operation that
// was never acknowledged. Periodic compaction folds the log into a
// snapshot (the existing gallery stream format plus a log sequence
// number) and resets the log, bounding both replay time and disk use.
//
// Log file layout:
//
//	0  4  magic "FPWL"
//	4  2  version (1)
//	then per record:
//	    4  body length
//	    4  CRC32 (IEEE) of body
//	    body:
//	        8  LSN (monotonic, starts at 1)
//	        1  op (1 = enroll, 2 = remove)
//	        enroll: one enrollment tuple (see package enc)
//	        remove: 2  id length, id bytes
//
// The body is also the unit a replica sync page carries (OpSyncTail in
// matchsvc); Record.AppendTo and DecodeRecord are the only code that
// knows it.
//
// Replay verifies each record's length and checksum. The first record
// that fails — a torn tail from a crash mid-append, or corruption —
// ends replay, and the file is truncated back to the last good record
// so the next append continues from a clean boundary. Nothing after a
// bad record can be trusted: a missing middle record would silently
// reorder history, so the log never tries to resynchronise past one.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"fpinterop/internal/enc"
	"fpinterop/internal/obs"
)

var logMagic = [4]byte{'F', 'P', 'W', 'L'}

const (
	logVersion = 1
	headerSize = 6

	// OpEnroll and OpRemove are the two mutations a gallery supports.
	OpEnroll byte = 1
	OpRemove byte = 2

	// maxBody caps a record body, so a rotted length prefix is refused
	// before it is allocated: the minutiae codec tops out near 32 KiB
	// and each ID at 64 KiB, so anything larger is corruption, not data.
	maxBody = 2 << 20
)

// ErrBadLogFormat reports a file that is not a write-ahead log.
var ErrBadLogFormat = errors.New("wal: bad log format")

// Record is one logged mutation. Template holds the minutiae-codec
// bytes and is only set for OpEnroll (as is DeviceID); on a decoded
// record it aliases the buffer the record was decoded from.
type Record struct {
	LSN      uint64
	Op       byte
	ID       string
	DeviceID string
	Template []byte
}

// ReplayInfo summarises what opening a log found.
type ReplayInfo struct {
	// Records is the number of intact records replayed.
	Records int
	// LastLSN is the highest LSN seen (0 if the log was empty).
	LastLSN uint64
	// TruncatedBytes is how many trailing bytes were cut off because
	// they failed length or checksum validation.
	TruncatedBytes int64
	// TornTail is true when the log ended in a partial or corrupt
	// record — the signature of a crash mid-append.
	TornTail bool
}

// Log is an append-only record log. It is not safe for concurrent use;
// Store serialises access.
type Log struct {
	f   *os.File
	buf enc.Writer
	// size mirrors the file size so callers can gauge log growth
	// without a stat syscall per append.
	size int64
	// fsyncLat, when non-nil, observes each fsync's duration (set by
	// Store from its metrics).
	fsyncLat *obs.Histogram
}

// OpenLog opens (or creates) the log at path and replays every intact
// record through apply in order (the record's Template is only valid
// during the call). A torn or corrupt tail is truncated away so appends
// resume from the last good record. If apply returns an error, replay
// stops and the log is closed.
func OpenLog(path string, apply func(Record) error) (*Log, ReplayInfo, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, ReplayInfo{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{f: f}
	info, err := l.replay(apply)
	if err != nil {
		f.Close()
		return nil, ReplayInfo{}, err
	}
	if pos, err := l.f.Seek(0, io.SeekEnd); err == nil {
		l.size = pos
	}
	return l, info, nil
}

func (l *Log) replay(apply func(Record) error) (ReplayInfo, error) {
	var info ReplayInfo
	size, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return info, fmt.Errorf("wal: seek: %w", err)
	}
	if size < headerSize {
		// New log, or a crash before even the header landed: start
		// fresh. There can be no records to lose in under 6 bytes.
		if size > 0 {
			info.TornTail = true
			info.TruncatedBytes = size
		}
		if err := l.f.Truncate(0); err != nil {
			return info, fmt.Errorf("wal: truncate: %w", err)
		}
		var hdr [headerSize]byte
		copy(hdr[:4], logMagic[:])
		binary.BigEndian.PutUint16(hdr[4:], logVersion)
		if _, err := l.f.WriteAt(hdr[:], 0); err != nil {
			return info, fmt.Errorf("wal: write header: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return info, fmt.Errorf("wal: sync header: %w", err)
		}
		if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
			return info, fmt.Errorf("wal: seek: %w", err)
		}
		return info, nil
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return info, fmt.Errorf("wal: seek: %w", err)
	}
	lr, err := newLogReader(bufio.NewReaderSize(l.f, 64<<10))
	if err != nil {
		return info, err
	}
	for {
		rec, err := lr.next()
		if err == io.EOF || errors.Is(err, errTornTail) {
			break
		}
		if err != nil {
			return info, err
		}
		if err := apply(rec); err != nil {
			return info, err
		}
		info.Records++
		info.LastLSN = rec.LSN
	}
	good := lr.off
	if good < size {
		info.TornTail = true
		info.TruncatedBytes = size - good
		if err := l.f.Truncate(good); err != nil {
			return info, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return info, fmt.Errorf("wal: sync after truncate: %w", err)
		}
	}
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return info, fmt.Errorf("wal: seek: %w", err)
	}
	return info, nil
}

// errTornTail reports log bytes that are not a whole valid record: a
// torn append, or corruption. Nothing after them can be trusted.
var errTornTail = errors.New("wal: torn or corrupt log record")

// logReader iterates a log file's records — the one reader replay and
// the replica tail both use. A record is returned only after its length
// is within maxBody, its checksum covers the whole body, and the body
// decodes with nothing left over; no field is looked at before that.
type logReader struct {
	r io.Reader
	// prefix and body are reused from record to record (a local prefix
	// would escape through the io.Reader call, one allocation per
	// record); the Template of the record last returned aliases body.
	prefix [8]byte
	body   []byte
	// off is the file offset just past the last record returned (past
	// the header before the first).
	off int64
}

// newLogReader checks the file header at the front of r.
func newLogReader(r io.Reader) (*logReader, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("wal: read header: %w", err)
	}
	if [4]byte(hdr[:4]) != logMagic {
		return nil, ErrBadLogFormat
	}
	if v := binary.BigEndian.Uint16(hdr[4:]); v != logVersion {
		return nil, fmt.Errorf("wal: unsupported log version %d", v)
	}
	return &logReader{r: r, off: headerSize}, nil
}

// next returns the following record, valid until the call after. The
// error is io.EOF at a clean end of file, wraps errTornTail when the
// bytes there are not a whole valid record, and is the read failure
// otherwise.
func (lr *logReader) next() (Record, error) {
	if _, err := io.ReadFull(lr.r, lr.prefix[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF // not one byte of another record
		}
		return Record{}, tornIfEOF(err, "record prefix")
	}
	n := binary.BigEndian.Uint32(lr.prefix[:4])
	if n > maxBody {
		return Record{}, fmt.Errorf("%w: implausible length %d", errTornTail, n)
	}
	if uint32(cap(lr.body)) < n {
		lr.body = make([]byte, n)
	}
	body := lr.body[:n]
	if _, err := io.ReadFull(lr.r, body); err != nil {
		return Record{}, tornIfEOF(err, "record body")
	}
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(lr.prefix[4:]) {
		return Record{}, fmt.Errorf("%w: checksum mismatch", errTornTail)
	}
	r := enc.Reader{Buf: body}
	rec, err := DecodeRecord(&r)
	if err == nil && len(r.Buf) != 0 {
		err = errors.New("trailing bytes")
	}
	if err != nil {
		// Checksummed but malformed: treat as corruption.
		return Record{}, fmt.Errorf("%w: %v", errTornTail, err)
	}
	lr.off += 8 + int64(n)
	return rec, nil
}

// tornIfEOF classifies a failed read of part of a record: running out
// of file mid-record is a torn tail, anything else an I/O error.
func tornIfEOF(err error, part string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: partial %s", errTornTail, part)
	}
	return fmt.Errorf("wal: read %s: %w", part, err)
}

// RecordMinSize is the smallest record body: LSN, op and an empty ID.
const RecordMinSize = 8 + 1 + 2

// DecodeRecord consumes one record body from r — a log record's body,
// or one record of a replica sync page. Template aliases r's buffer.
func DecodeRecord(r *enc.Reader) (Record, error) {
	rec := Record{LSN: r.Uint64(), Op: r.Byte()}
	switch rec.Op {
	case OpEnroll:
		rec.ID, rec.DeviceID, rec.Template = r.Enrollment()
	case OpRemove:
		rec.ID = r.String()
	}
	switch {
	case r.Err() != nil:
		return Record{}, r.Err()
	case rec.Op != OpEnroll && rec.Op != OpRemove:
		return Record{}, fmt.Errorf("wal: unknown op %d", rec.Op)
	}
	return rec, nil
}

// AppendTo appends the record's body to w.
func (rec Record) AppendTo(w *enc.Writer) error {
	w.Uint64(rec.LSN)
	w.Byte(rec.Op)
	if rec.Op == OpEnroll {
		return w.Enrollment(rec.ID, rec.DeviceID, rec.Template)
	}
	return w.String(rec.ID)
}

// appendFramed appends rec as the log stores it: body length, body
// checksum, body.
func appendFramed(w *enc.Writer, rec Record) error {
	start := len(w.Buf)
	w.Uint64(0) // length and checksum, patched below
	if err := rec.AppendTo(w); err != nil {
		w.Buf = w.Buf[:start]
		return fmt.Errorf("wal: record for %q: %w", rec.ID, err)
	}
	body := w.Buf[start+8:]
	if len(body) > maxBody {
		w.Buf = w.Buf[:start]
		return fmt.Errorf("wal: record for %q exceeds %d bytes", rec.ID, maxBody)
	}
	binary.BigEndian.PutUint32(w.Buf[start:], uint32(len(body)))
	binary.BigEndian.PutUint32(w.Buf[start+4:], crc32.ChecksumIEEE(body))
	return nil
}

// Append writes the records to the log in one write call, then fsyncs
// when sync is true. A multi-record batch therefore pays for a single
// disk flush. The write is all-or-nothing from replay's point of view:
// if it tears partway through, recovery truncates back to the record
// boundary before the batch's first torn record.
func (l *Log) Append(sync bool, recs ...Record) error {
	l.buf.Buf = l.buf.Buf[:0]
	for _, rec := range recs {
		if err := appendFramed(&l.buf, rec); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(l.buf.Buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(l.buf.Buf))
	if sync {
		var t0 time.Time
		if l.fsyncLat != nil {
			t0 = time.Now()
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		if l.fsyncLat != nil {
			l.fsyncLat.ObserveSince(t0)
		}
	}
	return nil
}

// Reset discards every record, leaving only the header. Called after a
// compaction snapshot has durably captured the log's effects.
func (l *Log) Reset() error {
	if err := l.f.Truncate(headerSize); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.size = headerSize
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("wal: seek: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync after reset: %w", err)
	}
	return nil
}

// Size returns the log's current size in bytes.
func (l *Log) Size() (int64, error) {
	st, err := l.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: stat: %w", err)
	}
	return st.Size(), nil
}

// Close fsyncs and closes the log file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: sync on close: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}
