package wal

// Replica sync source. A durable store can ship its state to a read
// replica in two pieces: a consistent snapshot capture (the same FPWS
// stream compaction writes to disk, serialized into memory, plus the
// index segment when the gallery has an index) and the log tail above
// a given LSN. A replica bootstraps from the snapshot,
// then polls the tail; when compaction has discarded the records it
// needs, the tail page comes back Truncated and the replica restarts
// from a fresh snapshot. Both calls run under the store's mutation
// lock, so every page is a consistent prefix of history — a record is
// never shipped before every record below it.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fpinterop/internal/gallery"
	"fpinterop/internal/minutiae"
)

// ErrSnapshotExpired reports a resumed snapshot transfer whose capture
// is gone (the store re-captured for a newer LSN, or restarted). The
// replica restarts the transfer with resumeLSN 0, or tails the log
// instead when the log still holds everything it lacks.
var ErrSnapshotExpired = errors.New("wal: sync snapshot expired")

// TailPage is one page of log records shipped to a replica.
type TailPage struct {
	// Records hold every shipped record, in LSN order, all above the
	// requested afterLSN.
	Records []Record
	// PrimaryLSN is the store's LSN at the time of the read; the
	// replica's lag is PrimaryLSN minus its own applied LSN.
	PrimaryLSN uint64
	// Truncated means compaction discarded records the replica still
	// needs: the gap (afterLSN, compaction LSN] is not in the log, so
	// the replica must restart from a snapshot.
	Truncated bool
}

// ApplyRecord applies one shipped record to a replica's gallery with
// replay's idempotent semantics: an enrollment overwrites any existing
// entry under the same ID, and removing a missing ID is a no-op — so
// re-applying a record a crash already delivered cannot diverge the
// replica from the primary.
func ApplyRecord(g *gallery.Store, rec Record) error {
	switch rec.Op {
	case OpEnroll:
		tpl, err := minutiae.Unmarshal(rec.Template)
		if err != nil {
			return fmt.Errorf("wal: apply lsn %d (%q): %w", rec.LSN, rec.ID, err)
		}
		g.Remove(rec.ID)
		return g.Enroll(rec.ID, rec.DeviceID, tpl)
	case OpRemove:
		g.Remove(rec.ID)
		return nil
	default:
		return fmt.Errorf("wal: apply lsn %d: unknown op %d", rec.LSN, rec.Op)
	}
}

// SnapshotChunk is one piece of a sync capture.
type SnapshotChunk struct {
	// LSN identifies the capture; every chunk of one transfer must
	// carry the same LSN or the stream being assembled is not a single
	// consistent snapshot.
	LSN uint64
	// Total is the capture's size; the transfer is complete when
	// offset + len(Data) reaches it.
	Total int64
	// Data is the chunk at the requested offset.
	Data []byte
}

// SyncSnapshot returns the chunk at offset, at most maxBytes long (<= 0
// for the rest), of a consistent capture of the store and the LSN it
// covers. A capture is the snapshot stream (FPWS, as compaction writes
// it) followed, when the gallery has an index, by that index's segment
// (index.AppendSegment): a replica installs it instead of extracting
// every template's keys again. Disk snapshots carry no segment — a
// restart rebuilds, and a compaction, which may run every few hundred
// writes, pays for no encoding.
//
// resumeLSN 0 captures fresh state (or reuses the cached capture when
// nothing mutated since); a non-zero resumeLSN asks for the capture at
// exactly that LSN, so a chunked transfer reads one immutable byte
// stream, and fails with ErrSnapshotExpired when that capture is gone.
// The capture is dropped once its last chunk is served, so a primary
// holds no segment once its transfers finish; a transfer still reading
// it gets it made again, byte for byte, as long as no mutation has been
// tried since. Callers must treat the chunk as read-only — it is shared
// with later calls.
func (s *Store) SyncSnapshot(resumeLSN uint64, offset int64, maxBytes int) (SnapshotChunk, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SnapshotChunk{}, errors.New("wal: sync snapshot: store closed")
	}
	switch {
	case resumeLSN == 0 && s.syncSnapData != nil && s.syncSnapLSN == s.lsn:
		// Nothing was committed since the cached capture: reuse it.
	case resumeLSN == 0, resumeLSN == s.syncSnapLSN && s.syncSnapData == nil && s.syncSnapExact:
		var buf bytes.Buffer
		if err := writeSnapshotStream(&buf, s.lsn, s.Store.SaveTo); err != nil {
			return SnapshotChunk{}, err
		}
		s.syncSnapLSN, s.syncSnapData = s.lsn, s.Store.AppendIndexSegment(buf.Bytes())
		s.syncSnapExact = true
	case resumeLSN != s.syncSnapLSN || s.syncSnapData == nil:
		return SnapshotChunk{}, ErrSnapshotExpired
	}
	data := s.syncSnapData
	if offset < 0 || offset > int64(len(data)) {
		return SnapshotChunk{}, fmt.Errorf("wal: sync snapshot: offset %d beyond %d-byte capture", offset, len(data))
	}
	chunk := data[offset:]
	if maxBytes > 0 && len(chunk) > maxBytes {
		chunk = chunk[:maxBytes]
	}
	if offset+int64(len(chunk)) == int64(len(data)) {
		s.syncSnapData = nil
	}
	return SnapshotChunk{LSN: s.syncSnapLSN, Total: int64(len(data)), Data: chunk}, nil
}

// SyncTail returns log records with LSN above afterLSN, stopping once
// roughly maxBytes of record bodies have been collected (at least one
// record is returned when any is available, so progress never stalls
// on a single large record). It reads the log file through a private
// handle under the mutation lock: the page is a consistent prefix, and
// the append offset of the live log is untouched.
func (s *Store) SyncTail(afterLSN uint64, maxBytes int) (TailPage, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 10
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var page TailPage
	if s.closed {
		return page, errors.New("wal: sync tail: store closed")
	}
	page.PrimaryLSN = s.lsn
	if afterLSN < s.compactLSN {
		page.Truncated = true
		return page, nil
	}
	f, err := os.Open(filepath.Join(s.dir, logName))
	if err != nil {
		return page, fmt.Errorf("wal: sync tail: %w", err)
	}
	defer f.Close()
	lr, err := newLogReader(bufio.NewReaderSize(f, 64<<10))
	if err != nil {
		return page, fmt.Errorf("wal: sync tail: %w", err)
	}
	for budget := int64(maxBytes); budget > 0; {
		before := lr.off
		rec, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// The lock rules out an append in flight, so anything but a
			// clean end is damage — and a page that skipped it would hand
			// the replica a history with a hole in it.
			return TailPage{}, fmt.Errorf("wal: sync tail: %w", err)
		}
		if rec.LSN <= afterLSN {
			continue // already applied on the replica
		}
		rec.Template = bytes.Clone(rec.Template) // the reader reuses its buffer
		page.Records = append(page.Records, rec)
		budget -= lr.off - before
	}
	return page, nil
}
