package shard

import (
	"context"
	"sync/atomic"

	"fpinterop/internal/matchsvc"
)

// Answered reports whether a backend call's outcome proves the backend
// alive: success, or a refusal the application defines — unknown ID,
// duplicate, write to a read-only replica (the coded wire statuses).
// Only the remaining failures count toward degradation; three Verify
// calls on unknown IDs must not hide a healthy shard's subjects from
// identification.
func Answered(err error) bool {
	return matchsvc.StatusFor(err) != matchsvc.StatusError
}

// HealthEvent is what one recorded outcome did to a Health, so each
// owner can bump its own metrics without a second copy of the rules.
type HealthEvent int

const (
	// HealthUnchanged: an answer from a backend in good standing, or a
	// failure that is the caller's own context giving up.
	HealthUnchanged HealthEvent = iota
	// HealthFailed: a failure was charged without crossing the
	// threshold (or the backend is degraded already).
	HealthFailed
	// HealthDegraded: this failure crossed the threshold.
	HealthDegraded
	// HealthReadmitted: a degraded backend answered.
	HealthReadmitted
)

// Health is the consecutive-failure state machine the router keeps per
// shard and a replica set keeps per member: Threshold failures in a row
// degrade the backend, any answer (see Answered) readmits it. It is
// all-atomic — reads are the hot path and must not serialize on a
// bookkeeping lock. The zero value with a Threshold set is ready.
type Health struct {
	Threshold int32
	fails     atomic.Int32
	degraded  atomic.Bool
}

// Record folds one call's outcome in. A failure while the caller's
// context is done — cancellation, or an expired caller deadline — says
// nothing about the backend, so it neither counts toward degradation
// nor resets the failure streak.
func (h *Health) Record(ctx context.Context, err error) HealthEvent {
	if Answered(err) {
		h.fails.Store(0)
		if h.degraded.Swap(false) {
			return HealthReadmitted
		}
		return HealthUnchanged
	}
	if ctx.Err() != nil {
		return HealthUnchanged
	}
	if h.fails.Add(1) >= h.Threshold && !h.degraded.Swap(true) {
		return HealthDegraded
	}
	return HealthFailed
}

// Degraded reports whether the backend is currently sidelined.
func (h *Health) Degraded() bool { return h.degraded.Load() }
