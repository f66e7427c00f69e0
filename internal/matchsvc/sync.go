package matchsvc

// Client side of the replica sync path: chunked snapshot transfer plus
// WAL tail streaming (OpSyncSnapshot / OpSyncTail). Both ops are
// idempotent reads of the primary's history, so they ride the
// idempotent retry path like Scan does.

import (
	"context"

	"fpinterop/internal/wal"
)

// SyncSnapshotChunk is one OpSyncSnapshot response: a slice of the
// primary's serialized snapshot stream.
type SyncSnapshotChunk struct {
	// LSN identifies the capture; every chunk of one transfer must
	// carry the same LSN or the stream being assembled is not a single
	// consistent snapshot.
	LSN uint64
	// Total is the full stream size; the transfer is complete when
	// offset + len(Data) reaches it.
	Total int64
	// Data is the chunk at the requested offset.
	Data []byte
}

// SyncSnapshot fetches one snapshot chunk from the primary. resumeLSN
// 0 starts a fresh transfer (the server captures current state);
// subsequent chunks pass the LSN of the first response so the whole
// transfer reads one immutable capture; when the primary no longer
// holds it the error wraps wal.ErrSnapshotExpired and the transfer
// restarts at 0. maxBytes <= 0 lets the server pick the largest chunk
// the frame cap allows.
func (c *Client) SyncSnapshot(ctx context.Context, resumeLSN uint64, offset int64, maxBytes int) (SyncSnapshotChunk, error) {
	fs := acquireFrameScratch()
	defer releaseFrameScratch(fs)
	fs.w.uint64(resumeLSN)
	fs.w.uint64(uint64(offset))
	fs.w.uint32(uint32(maxBytes))
	var out SyncSnapshotChunk
	err := c.roundTripIdem(ctx, OpSyncSnapshot, fs.w.buf, func(r *payloadReader) error {
		lsn, derr := r.uint64()
		if derr != nil {
			return derr
		}
		total, derr := r.uint64()
		if derr != nil {
			return derr
		}
		data, derr := r.bytes()
		if derr != nil {
			return derr
		}
		// data aliases the response buffer; the chunk outlives the call.
		out = SyncSnapshotChunk{LSN: lsn, Total: int64(total), Data: append([]byte(nil), data...)}
		return nil
	})
	return out, err
}

// SyncTail fetches WAL records above afterLSN from the primary, up to
// roughly maxBytes of record bodies (<= 0 for the server's maximum).
// An empty, un-truncated page means the caller has caught up to
// PrimaryLSN; a Truncated page means compaction discarded the needed
// records and the caller must restart from a snapshot.
func (c *Client) SyncTail(ctx context.Context, afterLSN uint64, maxBytes int) (wal.TailPage, error) {
	fs := acquireFrameScratch()
	defer releaseFrameScratch(fs)
	fs.w.uint64(afterLSN)
	fs.w.uint32(uint32(maxBytes))
	var page wal.TailPage
	err := c.roundTripIdem(ctx, OpSyncTail, fs.w.buf, func(r *payloadReader) error {
		primary, derr := r.uint64()
		if derr != nil {
			return derr
		}
		flags, derr := r.uint32()
		if derr != nil {
			return derr
		}
		n, derr := r.uint32()
		if derr != nil {
			return derr
		}
		page = wal.TailPage{PrimaryLSN: primary, Truncated: flags&1 != 0}
		// A record occupies at least 11 payload bytes; clamp the
		// preallocation against malformed counts.
		capHint := n
		if max := uint32(len(r.buf)-r.off) / 11; capHint > max {
			capHint = max
		}
		recs := make([]wal.Record, 0, capHint)
		for i := uint32(0); i < n; i++ {
			var rec wal.Record
			if rec.LSN, derr = r.uint64(); derr != nil {
				return derr
			}
			opb, derr := r.take(1)
			if derr != nil {
				return derr
			}
			rec.Op = opb[0]
			if rec.ID, derr = r.string(); derr != nil {
				return derr
			}
			if rec.Op == wal.OpEnroll {
				if rec.DeviceID, derr = r.string(); derr != nil {
					return derr
				}
				tpl, derr := r.bytes()
				if derr != nil {
					return derr
				}
				rec.Template = append([]byte(nil), tpl...)
			}
			recs = append(recs, rec)
		}
		page.Records = recs
		return nil
	})
	if err != nil {
		return wal.TailPage{}, err
	}
	return page, nil
}
