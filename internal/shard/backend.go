package shard

import (
	"context"

	"fpinterop/internal/gallery"
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

// Remote is a matchd reached through a matchsvc.Client as a shard: the
// client already speaks the contract call for call (it multiplexes
// concurrent requests over its pooled connections, so one Remote
// serves any number of in-flight calls, hedges included), so Remote
// adds the ring name and the one method the client spells differently.
type Remote struct {
	*matchsvc.Client
	name string
}

// NewRemote wraps a connected client as a shard named name (typically
// the dialed address).
func NewRemote(name string, cli *matchsvc.Client) *Remote {
	return &Remote{Client: cli, name: name}
}

func (r *Remote) Name() string { return r.name }

func (r *Remote) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	return r.IdentifyEx(ctx, probe, k)
}
