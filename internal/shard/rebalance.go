package shard

import (
	"context"
	"errors"
	"fmt"

	"fpinterop/internal/gallery"
)

// ErrMigrationInProgress reports an operation that must wait for the
// current online resharding to cut over.
var ErrMigrationInProgress = errors.New("shard: migration in progress")

// RebalanceStats summarises one completed rebalance.
type RebalanceStats struct {
	// Moved is the number of subjects transferred to the joining shard.
	Moved int
	// Sweeps is how many full passes over the old shards ran; the last
	// sweep always moves zero (that is the drain condition).
	Sweeps int
	// Conflicts counts moves that raced a concurrent removal: the old
	// copy vanished before the rebalancer could retire it, so the
	// fresh copy on the joining shard was compensated away rather than
	// left to resurrect a deleted subject.
	Conflicts int
}

// Rebalancer streams ring-moved subjects to a shard registered with
// AddShard while the router keeps serving. Use one goroutine per
// rebalancer; the router itself stays safe for concurrent use
// throughout.
type Rebalancer struct {
	r       *Router
	joining int
	newRing *ring
	done    bool
}

// scanPageSize is how many subjects each Scan page requests. Remote
// shards may return fewer per page to respect the wire frame cap.
const scanPageSize = 256

// AddShard registers b as a joining shard and starts an online
// resharding: the new ring (old names plus b's) immediately routes
// writes, so new enrollments land on their final owner, while reads
// keep covering both owners of every mid-flight key. Only keys the
// consistent-hash ring moves to b migrate — everything else stays put.
// Call Run on the returned Rebalancer to stream the moved subjects
// over and cut the ring over; until then the router serves in the
// dual-read migration mode. One migration may run at a time.
func (r *Router) AddShard(b Backend) (*Rebalancer, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mig != nil {
		return nil, ErrMigrationInProgress
	}
	name := b.Name()
	names := make([]string, 0, len(r.backends)+1)
	for _, existing := range r.backends {
		if existing.Name() == name {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateName, name)
		}
		names = append(names, existing.Name())
	}
	names = append(names, name)
	newRing := newRing(names)
	// Replaced-on-write: request paths hold snapshots of the old
	// slices, so they must not be appended to in place.
	backends := make([]Backend, 0, len(r.backends)+1)
	backends = append(backends, r.backends...)
	backends = append(backends, b)
	healths := make([]*health, 0, len(r.health)+1)
	healths = append(healths, r.health...)
	healths = append(healths, r.newHealth(name))
	r.backends = backends
	r.health = healths
	r.mig = &migration{joining: len(backends) - 1, newRing: newRing}
	return &Rebalancer{r: r, joining: len(backends) - 1, newRing: newRing}, nil
}

// Run streams every subject the new ring assigns to the joining shard
// from its old owner, then cuts the router over to the new ring. Each
// subject is copied before its old copy is retired, so an interruption
// (error or cancellation) can leave subjects briefly doubled — which
// identification deduplicates — but never lost; Run may simply be
// called again to resume. Sweeps repeat until one finds nothing left
// to move (enrollments racing the sweep land on the new owner already,
// so the backlog only drains). On success the migration is complete
// and the router serves the grown topology with no dual-read overhead.
func (rb *Rebalancer) Run(ctx context.Context) (RebalanceStats, error) {
	var stats RebalanceStats
	if rb.done {
		return stats, errors.New("shard: rebalance already completed")
	}
	t := rb.r.topo()
	if t.mig == nil || t.mig.newRing != rb.newRing {
		return stats, errors.New("shard: rebalancer does not match the router's migration")
	}
	join := t.backends[rb.joining]
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		moved, err := rb.sweep(ctx, t, join, &stats)
		stats.Sweeps++
		if err != nil {
			return stats, err
		}
		// Drain condition: a sweep that moved nothing saw every old
		// shard with no subjects left to give. At least two sweeps run,
		// so anything enrolled on an old owner while the first sweep
		// was mid-flight is re-scanned before cutover.
		if moved == 0 && stats.Sweeps >= 2 {
			break
		}
	}
	rb.r.mu.Lock()
	rb.r.ring = rb.newRing
	rb.r.mig = nil
	rb.r.mu.Unlock()
	rb.done = true
	return stats, nil
}

// sweep makes one pass over every old shard, moving the subjects the
// new ring assigns to the joining shard.
func (rb *Rebalancer) sweep(ctx context.Context, t topo, join Backend, stats *RebalanceStats) (int, error) {
	moved := 0
	for i, b := range t.backends {
		if i == rb.joining {
			continue
		}
		after := ""
		for {
			if err := ctx.Err(); err != nil {
				return moved, err
			}
			page, err := b.Scan(ctx, after, scanPageSize)
			rb.r.recordCtx(ctx, t.health[i], err)
			if err != nil {
				return moved, routingErr(b, err)
			}
			if len(page) == 0 {
				break
			}
			after = page[len(page)-1].ID
			var moving []gallery.Export
			for _, e := range page {
				if rb.newRing.owner(e.ID) == rb.joining {
					moving = append(moving, e)
				}
			}
			if len(moving) == 0 {
				continue
			}
			n, err := rb.moveBatch(ctx, t, b, join, moving, stats)
			moved += n
			if err != nil {
				return moved, err
			}
		}
	}
	return moved, nil
}

// moveBatch copies the items to the joining shard, then retires the
// old copies. Copy-before-delete is the invariant that makes the whole
// migration lossless: at every instant each subject exists on at least
// one shard the router reads.
func (rb *Rebalancer) moveBatch(ctx context.Context, t topo, old Backend, join Backend, items []gallery.Export, stats *RebalanceStats) (int, error) {
	batch := make([]Enrollment, len(items))
	for i, e := range items {
		batch[i] = Enrollment{ID: e.ID, DeviceID: e.DeviceID, Template: e.Template}
	}
	err := join.EnrollBatch(ctx, batch)
	rb.r.recordCtx(ctx, t.health[rb.joining], err)
	if err != nil {
		// The batch may have tripped over a subject that already made
		// it across in an earlier interrupted run; retry item by item,
		// skipping the ones the joining shard already holds.
		for _, e := range items {
			ok, herr := join.Has(ctx, e.ID)
			rb.r.recordCtx(ctx, t.health[rb.joining], herr)
			if herr != nil {
				return 0, routingErr(join, herr)
			}
			if ok {
				continue
			}
			eerr := join.Enroll(ctx, e.ID, e.DeviceID, e.Template)
			rb.r.recordCtx(ctx, t.health[rb.joining], eerr)
			if eerr != nil {
				return 0, routingErr(join, eerr)
			}
		}
	}
	moved := 0
	for _, e := range items {
		if err := old.Remove(ctx, e.ID); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return moved, cerr
			}
			// The old copy would not retire — almost always because a
			// concurrent Remove deleted the subject between our copy
			// and now. Compensate by withdrawing the fresh copy too:
			// leaving it would resurrect a deletion the caller was
			// already acknowledged for. If the subject genuinely still
			// exists (old shard glitched instead), the next sweep
			// re-scans and re-moves it.
			join.Remove(ctx, e.ID)
			stats.Conflicts++
			continue
		}
		moved++
	}
	stats.Moved += moved
	return moved, nil
}
