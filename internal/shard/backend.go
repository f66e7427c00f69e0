package shard

import (
	"context"

	"fpinterop/internal/gallery"
	"fpinterop/internal/match"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/minutiae"
)

// Enrollment is one batched enrollment item.
type Enrollment = matchsvc.Enrollment

// Backend is one shard of the partitioned gallery — the gallery
// contract (matchsvc.Backend: every call ctx-first, since a shard is
// potentially a network hop away) plus the name the ring hashes. Local
// wraps an in-process store, Remote a matchd reached through
// matchsvc.Client, replica.Set a primary and its read replicas.
type Backend interface {
	matchsvc.Backend
	// Name identifies the shard on the ring (a label for local shards,
	// typically the address for remote ones). Names must be unique and
	// stable: the ring hashes them, so renaming a shard moves its keys.
	Name() string
}

// Local is an in-process store as a shard: the matchsvc.Local adapter
// under a ring name.
type Local struct {
	matchsvc.Local
	name string
}

// NewLocal wraps an in-process store — *gallery.Store, or *wal.Store for
// a durable shard — as a shard named name.
func NewLocal(name string, store matchsvc.Store) *Local {
	return &Local{Local: matchsvc.Local{Store: store}, name: name}
}

func (l *Local) Name() string { return l.name }

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
