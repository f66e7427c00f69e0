package shard

import (
	"context"

	"fpinterop/internal/gallery"
	"fpinterop/internal/match"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/minutiae"
)

// Enrollment is one batched enrollment item — the shape the wire
// protocol, the WAL and the store all batch, so router batches reach
// any shard without a conversion copy.
type Enrollment = gallery.Export

// Backend is one shard of the partitioned gallery: a local
// gallery.Store, or a remote matchd reached through matchsvc.Client.
// Every call takes a context.Context first — a shard is potentially a
// network hop away, so callers must be able to bound and cancel each
// operation. Implementations must be safe for concurrent use and
// return promptly (with ctx.Err()) once the context is done.
type Backend interface {
	// Name identifies the shard on the ring (a label for local shards,
	// typically the address for remote ones). Names must be unique and
	// stable: the ring hashes them, so renaming a shard moves its keys.
	Name() string
	Enroll(ctx context.Context, id, deviceID string, tpl *minutiae.Template) error
	// EnrollBatch registers many templates, ideally in fewer round trips
	// than one-by-one Enroll. Not atomic: a failure may leave a prefix of
	// the batch enrolled.
	EnrollBatch(ctx context.Context, items []Enrollment) error
	Remove(ctx context.Context, id string) error
	// Has reports whether id is enrolled on this shard. The router uses
	// it as the duplicate guard and read director for keys whose
	// ownership is mid-migration.
	Has(ctx context.Context, id string) (bool, error)
	// Scan returns up to max enrollments whose ID sorts strictly after
	// afterID, in ID order; an empty page ends the scan. May return
	// fewer than max (remote shards respect the frame cap), so callers
	// page by cursor, not by count. The rebalancer streams a shard's
	// ring-moved subjects out with it while the shard keeps serving.
	Scan(ctx context.Context, afterID string, max int) ([]gallery.Export, error)
	Verify(ctx context.Context, id string, probe *minutiae.Template) (match.Result, error)
	IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error)
	// Len returns the shard's enrollment count; the error reports an
	// unreachable shard (always nil for local shards).
	Len(ctx context.Context) (int, error)
}

// Store is what a Local shard needs from its store. *gallery.Store
// satisfies it, and so does *wal.Store — the same reads, with every
// mutation routed through the write-ahead log (and an atomic,
// single-fsync EnrollBatch) — so one adapter serves plain and durable
// shards alike.
type Store interface {
	Enroll(id, deviceID string, tpl *minutiae.Template) error
	EnrollBatch(items []gallery.Export) error
	Remove(id string) error
	Has(id string) bool
	Scan(afterID string, max int) []gallery.Export
	VerifyContext(ctx context.Context, id string, probe *minutiae.Template) (match.Result, error)
	IdentifyDetailedContext(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error)
	Len() int
}

// Local adapts an in-process Store to the Backend interface.
type Local struct {
	name  string
	store Store
}

// NewLocal wraps an in-process store as a shard named name.
func NewLocal(name string, store Store) *Local {
	return &Local{name: name, store: store}
}

func (l *Local) Name() string { return l.name }

func (l *Local) Enroll(ctx context.Context, id, deviceID string, tpl *minutiae.Template) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.store.Enroll(id, deviceID, tpl)
}

func (l *Local) EnrollBatch(ctx context.Context, items []Enrollment) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.store.EnrollBatch(items)
}

func (l *Local) Remove(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.store.Remove(id)
}

func (l *Local) Has(ctx context.Context, id string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return l.store.Has(id), nil
}

func (l *Local) Scan(ctx context.Context, afterID string, max int) ([]gallery.Export, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.store.Scan(afterID, max), nil
}

func (l *Local) Verify(ctx context.Context, id string, probe *minutiae.Template) (match.Result, error) {
	return l.store.VerifyContext(ctx, id, probe)
}

func (l *Local) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	return l.store.IdentifyDetailedContext(ctx, probe, k)
}

func (l *Local) Len(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return l.store.Len(), nil
}

// Remote adapts a matchsvc.Client to the Backend interface. The client
// multiplexes concurrent requests over its pooled connections, so one
// Remote serves any number of in-flight calls (hedges included).
type Remote struct {
	name string
	cli  *matchsvc.Client
}

// NewRemote wraps a connected client as a shard named name (typically
// the dialed address).
func NewRemote(name string, cli *matchsvc.Client) *Remote {
	return &Remote{name: name, cli: cli}
}

func (r *Remote) Name() string { return r.name }

func (r *Remote) Enroll(ctx context.Context, id, deviceID string, tpl *minutiae.Template) error {
	return r.cli.Enroll(ctx, id, deviceID, tpl)
}

func (r *Remote) EnrollBatch(ctx context.Context, items []Enrollment) error {
	_, err := r.cli.EnrollBatch(ctx, items)
	return err
}

func (r *Remote) Remove(ctx context.Context, id string) error { return r.cli.Remove(ctx, id) }

func (r *Remote) Has(ctx context.Context, id string) (bool, error) { return r.cli.Has(ctx, id) }

func (r *Remote) Scan(ctx context.Context, afterID string, max int) ([]gallery.Export, error) {
	return r.cli.Scan(ctx, afterID, max)
}

func (r *Remote) Verify(ctx context.Context, id string, probe *minutiae.Template) (match.Result, error) {
	res, err := r.cli.Verify(ctx, id, probe)
	if err != nil {
		return match.Result{}, err
	}
	return match.Result{Score: res.Score, Matched: res.Matched}, nil
}

func (r *Remote) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	return r.cli.IdentifyEx(ctx, probe, k)
}

func (r *Remote) Len(ctx context.Context) (int, error) { return r.cli.Count(ctx) }
