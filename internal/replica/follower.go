package replica

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/obs"
	"fpinterop/internal/wal"
)

// DefaultSyncInterval is how often a Follower polls the primary's tail
// when the caller does not choose a cadence. Short enough that replica
// staleness stays in the tens of milliseconds under steady write load.
const DefaultSyncInterval = 75 * time.Millisecond

// FollowerOptions configures the catch-up loop.
type FollowerOptions struct {
	// Interval between tail polls in Run. 0 means DefaultSyncInterval.
	Interval time.Duration
	// MaxBytes bounds one tail page or snapshot chunk (0 lets the wire
	// layer choose its budget).
	MaxBytes int
	// Metrics, when non-nil, registers the follower's families there.
	Metrics *obs.Registry
	// Shard labels the metrics; defaults to "0".
	Shard string
}

// Follower keeps a local gallery caught up with a WAL-backed primary
// over the matchsvc sync ops: it bootstraps from a chunked snapshot
// transfer, then polls the log tail above its applied LSN, restarting
// from a fresh snapshot when compaction truncates the history it needs.
// Reads of the local gallery are safe at any time — applied records are
// whole and in order, the replica is just ≤ Lag records behind.
type Follower struct {
	store *gallery.Store
	cli   *matchsvc.Client
	opt   FollowerOptions

	lsn        atomic.Uint64
	primaryLSN atomic.Uint64

	lag       *obs.Gauge
	applied   *obs.Counter
	restores  *obs.Counter
	syncFails *obs.Counter
}

// NewFollower wires a local gallery to a primary reachable through cli.
// The caller keeps ownership of both; the follower only mutates the
// gallery through snapshot restores and record application.
func NewFollower(store *gallery.Store, cli *matchsvc.Client, opt FollowerOptions) *Follower {
	if opt.Interval <= 0 {
		opt.Interval = DefaultSyncInterval
	}
	if opt.Shard == "" {
		opt.Shard = "0"
	}
	reg := opt.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f := &Follower{store: store, cli: cli, opt: opt}
	f.lag = reg.GaugeVec("replica_lsn_lag",
		"Primary LSN minus this replica's applied LSN; 0 when caught up.", "shard").With(opt.Shard)
	f.applied = reg.CounterVec("replica_records_applied_total",
		"WAL records applied from the primary.", "shard").With(opt.Shard)
	f.restores = reg.CounterVec("replica_snapshot_restores_total",
		"Full snapshot restores (bootstrap or post-compaction restart).", "shard").With(opt.Shard)
	f.syncFails = reg.CounterVec("replica_sync_errors_total",
		"Failed sync rounds in the Run loop.", "shard").With(opt.Shard)
	return f
}

// LSN is the highest log record applied locally.
func (f *Follower) LSN() uint64 { return f.lsn.Load() }

// Lag is the primary's LSN minus LSN, both as of the last completed
// sync round — how many acked primary mutations this replica has not
// applied yet. This is the replica's staleness bound: a read served
// here can miss at most Lag acknowledged writes.
func (f *Follower) Lag() uint64 {
	p, l := f.primaryLSN.Load(), f.lsn.Load()
	if p <= l {
		return 0
	}
	return p - l
}

func (f *Follower) publishLag() { f.lag.Set(int64(f.Lag())) }

// Sync runs catch-up rounds until the replica has applied every record
// the primary had when the last round started. A follower that has
// applied nothing restores a snapshot once the log holds a record, as
// does one compaction left behind; the tail is catch-up. A bootstrap
// whose capture expires midway applies the page in hand instead, since
// two replicas re-capturing in turn can expire each other while writes
// land; only a truncated page starts the transfer over, next round.
func (f *Follower) Sync(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		page, err := f.cli.SyncTail(ctx, f.lsn.Load(), f.opt.MaxBytes)
		if err != nil {
			return err
		}
		f.primaryLSN.Store(page.PrimaryLSN)
		if page.Truncated || f.lsn.Load() == 0 && len(page.Records) > 0 {
			err := f.restore(ctx)
			if err == nil || page.Truncated && errors.Is(err, wal.ErrSnapshotExpired) {
				continue
			}
			if !errors.Is(err, wal.ErrSnapshotExpired) {
				return err
			}
		}
		if len(page.Records) == 0 {
			f.publishLag()
			return nil
		}
		for _, rec := range page.Records {
			if rec.LSN <= f.lsn.Load() {
				return fmt.Errorf("replica: tail went backwards: record lsn %d at cursor %d",
					rec.LSN, f.lsn.Load())
			}
			if err := wal.ApplyRecord(f.store, rec); err != nil {
				return err
			}
			f.lsn.Store(rec.LSN)
			f.applied.Inc()
		}
		f.publishLag()
	}
}

// restore replaces the local gallery with a snapshot from the primary,
// pulled in chunks under the wire frame cap and loaded in one bulk load
// (gallery.Store.ReplaceAll). It returns wal.ErrSnapshotExpired when
// the primary dropped the capture midway.
func (f *Follower) restore(ctx context.Context) error {
	first, err := f.cli.SyncSnapshot(ctx, 0, 0, f.opt.MaxBytes)
	if err != nil {
		return err
	}
	stream := append([]byte(nil), first.Data...)
	for int64(len(stream)) < first.Total {
		chunk, err := f.cli.SyncSnapshot(ctx, first.LSN, int64(len(stream)), f.opt.MaxBytes)
		if err != nil {
			return err
		}
		if chunk.LSN != first.LSN || chunk.Total != first.Total || len(chunk.Data) == 0 {
			return fmt.Errorf("replica: snapshot transfer drifted (lsn %d→%d, total %d→%d, %d-byte chunk)",
				first.LSN, chunk.LSN, first.Total, chunk.Total, len(chunk.Data))
		}
		stream = append(stream, chunk.Data...)
	}
	_, entries, err := wal.DecodeSnapshot(stream)
	if err != nil {
		return err
	}
	if err := f.store.ReplaceAll(entries); err != nil {
		return err
	}
	f.lsn.Store(first.LSN)
	f.restores.Inc()
	f.publishLag()
	return nil
}

// Run polls Sync on the configured interval until ctx is done. Errors
// are counted and retried — a replica must survive primary restarts and
// network trouble, catching up when the far side returns.
func (f *Follower) Run(ctx context.Context) {
	ticker := time.NewTicker(f.opt.Interval)
	defer ticker.Stop()
	for {
		if err := f.Sync(ctx); err != nil && ctx.Err() == nil {
			f.syncFails.Inc()
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// ReadOnlyGallery is a replica's local gallery as a matchsvc.Store with
// the contract's writes refused: a replica-mode server answers Verify/
// Identify/Len from local state and tells writers to go to the primary.
// Both mutating methods of the Store contract are overridden — one left
// promoted from the embedded store would let a wire write fork the
// replica from its primary's log. Only those are refused: the embedded
// store's direct mutators (Enroll, ReplaceAll) stay promoted, are
// reached by no wire op, and must never be called on a replica.
type ReadOnlyGallery struct {
	*gallery.Store
}

// EnrollBatch refuses: replicas apply primary log records only.
func (ReadOnlyGallery) EnrollBatch([]gallery.Export) error { return matchsvc.ErrReadOnly }

// Remove refuses: replicas apply primary log records only.
func (ReadOnlyGallery) Remove(id string) error {
	return matchsvc.ErrReadOnly
}
