package matchsvc

import (
	"context"

	"fpinterop/internal/gallery"
	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
)

// Enrollment is one batched enrollment item — the gallery's own export
// shape, so batches pass between wire, router, WAL and store without a
// conversion copy.
type Enrollment = gallery.Export

// Backend is the gallery contract, the one shape everything between
// fpis and a store speaks: a Server dispatches onto it, a shard is one
// (plus a ring name), and so is whatever a Client reaches. Every call
// takes a context.Context first — the far side is potentially a
// network hop away, so callers must be able to bound and cancel each
// operation. Implementations must be safe for concurrent use and
// return promptly (with ctx.Err()) once the context is done.
type Backend interface {
	Enroll(ctx context.Context, id, deviceID string, tpl *minutiae.Template) error
	// EnrollBatch registers many templates, ideally in fewer round trips
	// (and fewer fsyncs) than one-by-one Enroll. Not atomic in general:
	// a failure may leave a prefix of the batch enrolled.
	EnrollBatch(ctx context.Context, items []Enrollment) error
	Remove(ctx context.Context, id string) error
	Verify(ctx context.Context, id string, probe *minutiae.Template) (match.Result, error)
	IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error)
	// Len returns the enrollment count; the error reports an
	// unreachable backend (always nil in process).
	Len(ctx context.Context) (int, error)
}

// Store is what Local needs from an in-process store. *gallery.Store
// satisfies it, and so does *wal.Store — the same reads, with every
// mutation routed through the write-ahead log (and an atomic,
// single-fsync EnrollBatch). Only the two long reads take a context: a
// map update or a local fsync is not cancellable.
type Store interface {
	Enroll(id, deviceID string, tpl *minutiae.Template) error
	EnrollBatch(items []gallery.Export) error
	Remove(id string) error
	VerifyContext(ctx context.Context, id string, probe *minutiae.Template) (match.Result, error)
	IdentifyDetailedContext(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error)
	Len() int
}

// Local adapts an in-process Store to the Backend contract — the one
// adapter between the two shapes, whether the store ends up behind a
// Server or as a shard of a router.
type Local struct {
	Store Store
}

func (l Local) Enroll(ctx context.Context, id, deviceID string, tpl *minutiae.Template) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.Store.Enroll(id, deviceID, tpl)
}

func (l Local) EnrollBatch(ctx context.Context, items []Enrollment) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.Store.EnrollBatch(items)
}

func (l Local) Remove(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.Store.Remove(id)
}

func (l Local) Verify(ctx context.Context, id string, probe *minutiae.Template) (match.Result, error) {
	return l.Store.VerifyContext(ctx, id, probe)
}

func (l Local) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	return l.Store.IdentifyDetailedContext(ctx, probe, k)
}

func (l Local) Len(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return l.Store.Len(), nil
}
