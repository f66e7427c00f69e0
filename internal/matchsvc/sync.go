package matchsvc

// Client side of the replica sync path: chunked snapshot transfer plus
// WAL tail streaming (OpSyncSnapshot / OpSyncTail). Both ops are
// idempotent reads of the primary's history, so they ride the
// idempotent retry path.

import (
	"context"

	"fpinterop/internal/enc"
	"fpinterop/internal/wal"
)

// SyncSnapshot fetches one snapshot chunk from the primary. resumeLSN
// 0 starts a fresh transfer (the server captures current state);
// subsequent chunks pass the LSN of the first response so the whole
// transfer reads one immutable capture; when the primary no longer
// holds it the error wraps wal.ErrSnapshotExpired, and the caller
// starts over at 0 or tails the log instead. maxBytes <= 0 lets the server pick the largest chunk
// the frame cap allows.
func (c *Client) SyncSnapshot(ctx context.Context, resumeLSN uint64, offset int64, maxBytes int) (wal.SnapshotChunk, error) {
	fs := acquireFrameScratch()
	defer releaseFrameScratch(fs)
	fs.w.Uint64(resumeLSN)
	fs.w.Uint64(uint64(offset))
	fs.w.Uint32(uint32(maxBytes))
	var out wal.SnapshotChunk
	err := c.do(ctx, OpSyncSnapshot, fs.w.Buf, func(r *enc.Reader) error {
		// Data aliases the response frame, which is this response's own.
		out = wal.SnapshotChunk{LSN: r.Uint64(), Total: int64(r.Uint64()), Data: r.Bytes()}
		return r.Err()
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
	fs.w.Uint64(afterLSN)
	fs.w.Uint32(uint32(maxBytes))
	var page wal.TailPage
	err := c.do(ctx, OpSyncTail, fs.w.Buf, func(r *enc.Reader) error {
		page = wal.TailPage{PrimaryLSN: r.Uint64(), Truncated: r.Uint32()&1 != 0}
		page.Records = make([]wal.Record, r.Count(wal.RecordMinSize))
		for i := range page.Records {
			// A page record is a log record's body, byte for byte. The
			// templates alias the response frame, which is this
			// response's own.
			var derr error
			if page.Records[i], derr = wal.DecodeRecord(r); derr != nil {
				return derr
			}
		}
		return r.Err()
	})
	if err != nil {
		return wal.TailPage{}, err
	}
	return page, nil
}
