package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"fpinterop/internal/atomicio"
	"fpinterop/internal/gallery"
)

// Snapshot container format — a gallery stream stamped with the log
// sequence number it covers:
//
//	0  4  magic "FPWS"
//	4  2  version (1)
//	6  8  LSN of the last record folded into this snapshot
//	then the gallery store stream (FPGD, written by Store.SaveTo)
//
// Replay on the next open skips every log record with LSN <= the
// snapshot's: a crash between writing the snapshot and resetting the
// log re-reads those records but applies none of them twice.
var snapMagic = [4]byte{'F', 'P', 'W', 'S'}

const snapVersion = 1

// ErrBadSnapshotFormat reports a file that is not a WAL snapshot.
var ErrBadSnapshotFormat = errors.New("wal: bad snapshot format")

// writeSnapshotStream writes the snapshot container (header + gallery
// stream) to w. It is the shared encoder behind the on-disk compaction
// snapshot and the in-memory capture the replica sync path ships over
// the wire — both sides of a transfer parse the same bytes.
func writeSnapshotStream(w io.Writer, lsn uint64, save func(io.Writer) error) error {
	var hdr [snapHeaderSize]byte
	copy(hdr[:4], snapMagic[:])
	binary.BigEndian.PutUint16(hdr[4:6], snapVersion)
	binary.BigEndian.PutUint64(hdr[6:], lsn)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: write snapshot header: %w", err)
	}
	return save(w)
}

const snapHeaderSize = 14

// writeSnapshot atomically replaces path with a snapshot at lsn whose
// gallery stream is produced by save (typically gallery.Store.SaveTo).
func writeSnapshot(path string, lsn uint64, save func(io.Writer) error) error {
	return atomicio.WriteFile(path, 0o644, func(w io.Writer) error {
		return writeSnapshotStream(w, lsn, save)
	})
}

// DecodeSnapshot parses a snapshot stream — the on-disk compaction
// snapshot or a capture SyncSnapshot ships to a replica — into the LSN
// it covers, the gallery entries it holds and the index segment a
// capture carries behind them (nil when there is none: a disk snapshot,
// or a primary without an index). The segment is not checked here; the
// replica that installs it decodes it. The entries hold no reference to
// data, the segment aliases it.
func DecodeSnapshot(data []byte) (lsn uint64, entries []gallery.Export, segment []byte, err error) {
	if len(data) < snapHeaderSize {
		return 0, nil, nil, fmt.Errorf("wal: read snapshot header: %w", io.ErrUnexpectedEOF)
	}
	if [4]byte(data[:4]) != snapMagic {
		return 0, nil, nil, ErrBadSnapshotFormat
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != snapVersion {
		return 0, nil, nil, fmt.Errorf("wal: unsupported snapshot version %d", v)
	}
	lsn = binary.BigEndian.Uint64(data[6:])
	entries, rest, err := gallery.ReadEntries(data[snapHeaderSize:])
	if err != nil {
		return 0, nil, nil, fmt.Errorf("wal: snapshot gallery: %w", err)
	}
	if len(rest) > 0 {
		segment = rest
	}
	return lsn, entries, segment, nil
}

// readSnapshot loads the snapshot at path. A missing file is not an
// error — it is simply an empty gallery at LSN 0, the state before the
// first compaction. The file is read whole and dropped once decoded.
func readSnapshot(path string) (lsn uint64, entries []gallery.Export, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil, nil
		}
		return 0, nil, fmt.Errorf("wal: read snapshot %s: %w", path, err)
	}
	lsn, entries, _, err = DecodeSnapshot(data)
	return lsn, entries, err
}
