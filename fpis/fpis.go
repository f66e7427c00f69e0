// Package fpis is the public face of the fingerprint identity service:
// one context-aware Service interface over every deployment shape the
// library supports — a single in-process gallery, a sharded
// scatter-gather tier, or a remote matchd instance reached over the
// wire protocol.
//
// Every shape is constructed from the same package:
//
//	svc, err := fpis.New(ctx)                                  // local store
//	svc, err := fpis.New(ctx, fpis.WithIndex(0))               // local + triplet index
//	svc, err := fpis.New(ctx, fpis.WithLocalShards(4))         // sharded, in-process
//	svc, err := fpis.New(ctx, fpis.WithShards("a:7070", ...))  // sharded, remote
//	svc, err := fpis.Dial(ctx, "127.0.0.1:7070")               // one remote matchd
//
// Every call takes a context.Context first. Deadlines bound the whole
// operation (including wire I/O on remote paths), and cancellation
// unblocks an in-flight 1:N identification promptly — the local
// exhaustive scan polls the context between matcher comparisons, the
// sharded scatter abandons and cancels its per-shard calls, and the
// remote client interrupts blocked I/O and ships the time left with the
// request, so the serving process stops too. All shapes are one
// implementation over one gallery contract and behaviorally identical
// on the non-cancelled paths; the conformance suite in this package
// holds them to that.
package fpis

import (
	"context"
	"fmt"

	"fpinterop/internal/gallery"
	"fpinterop/internal/match"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/topology"
)

// Template is a minutiae template — the unit of enrollment and search.
// Templates come from the capture pipeline (see internal/sensor) or
// the binary codec (minutiae.Unmarshal via UnmarshalTemplate).
type Template = minutiae.Template

// MarshalTemplate encodes a template with the library's binary codec —
// the same encoding the wire protocol and gallery persistence use.
func MarshalTemplate(t *Template) ([]byte, error) { return minutiae.Marshal(t) }

// UnmarshalTemplate decodes a template produced by MarshalTemplate.
func UnmarshalTemplate(data []byte) (*Template, error) { return minutiae.Unmarshal(data) }

// MatchResult is one 1:1 comparison outcome. Remote implementations
// carry only Score and Matched across the wire.
type MatchResult = match.Result

// Candidate is one identification hit: an enrollment ID, the device
// that produced its template, and the similarity score.
type Candidate = gallery.Candidate

// Enrollment is one batched enrollment item.
type Enrollment = matchsvc.Enrollment

// Sentinel errors, matchable with errors.Is on every implementation —
// the wire protocol's status byte carries them across any number of
// hops.
var (
	// ErrNotFound reports an unknown enrollment ID.
	ErrNotFound = gallery.ErrNotFound
	// ErrDuplicate reports an already-used enrollment ID.
	ErrDuplicate = gallery.ErrDuplicate
)

// IdentifyStats describes how one identification was served,
// regardless of the serving path.
type IdentifyStats struct {
	// GallerySize is the number of enrollments searched (summed over
	// shards on the sharded path).
	GallerySize int
	// Shortlist is how many candidates retrieval indexes surfaced (0
	// when no index took part).
	Shortlist int
	// Scanned is how many full matcher comparisons ran.
	Scanned int
	// Indexed reports whether index shortlists served the search (on
	// the sharded path: every answering shard used its index).
	Indexed bool
	// ShardsQueried, ShardsSkipped, and ShardsFailed partition the
	// shard set (1/0/0 for local and remote implementations).
	ShardsQueried int
	ShardsSkipped int
	ShardsFailed  int
	// Partial reports incomplete coverage: a shard was skipped or
	// failed, so a mate enrolled there could be missing from the
	// candidates.
	Partial bool
}

// Stats is a point-in-time service summary: enrollment count (reachable
// shards only), shard count (1 for a single store), the names of shards
// currently excluded from searches, whether a retrieval index serves
// identifications, and — for durable services — the WAL summary. It is
// the same value whether the service assembled it in process or a
// matchd shipped it over the wire.
type Stats = matchsvc.ServiceStats

// WALStats aggregates write-ahead-log state across every shard of a
// durable service: what the startup crash recovery found (snapshot
// entries restored, records replayed, torn-tail bytes discarded and on
// how many shards) and how much un-compacted log currently sits on
// disk.
type WALStats = matchsvc.WALServiceStats

// Service is the identity-service facade. Every method takes a
// context.Context first: its deadline bounds the operation end to end
// and its cancellation unblocks in-flight work with ctx.Err().
// Implementations are safe for concurrent use.
type Service interface {
	// Enroll registers a template under id. Enrolling an existing id
	// fails with ErrDuplicate.
	Enroll(ctx context.Context, id, deviceID string, tpl *Template) error
	// EnrollBatch registers many templates, grouping work to minimize
	// round trips on sharded and remote paths. Not atomic: on failure
	// an arbitrary subset may remain enrolled — sharded services land
	// whole per-shard groups in parallel, so the survivors need not be
	// a prefix of items. Re-driving the same batch is safe to the
	// extent that duplicates surface as ErrDuplicate.
	EnrollBatch(ctx context.Context, items []Enrollment) error
	// Remove deletes an enrollment; an unknown id fails with
	// ErrNotFound.
	Remove(ctx context.Context, id string) error
	// Verify runs a 1:1 comparison of the probe against one
	// enrollment; an unknown id fails with ErrNotFound.
	Verify(ctx context.Context, id string, probe *Template) (MatchResult, error)
	// Identify searches the probe 1:N and returns the top-k candidates
	// by descending score with deterministic ID tie-breaks. Any k <= 0
	// requests the full ranking; k beyond the gallery size is clamped.
	Identify(ctx context.Context, probe *Template, k int) ([]Candidate, error)
	// IdentifyDetailed is Identify plus retrieval statistics.
	IdentifyDetailed(ctx context.Context, probe *Template, k int) ([]Candidate, IdentifyStats, error)
	// Stats summarizes the service (enrollment count, shard health,
	// index state).
	Stats(ctx context.Context) (Stats, error)
	// Close releases resources the constructor acquired (network
	// connections on remote paths). The service is unusable afterward.
	Close() error
}

// New builds an in-process Service from functional options: a single
// local gallery by default, a consistent-hash shard router over
// in-process stores with WithLocalShards, or a scatter-gather front
// over remote matchd shards with WithShards. The context bounds
// construction work (dialing remote shards); it does not outlive New.
func New(ctx context.Context, opts ...Option) (Service, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t, err := topology.Build(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("fpis: %w", err)
	}
	return topologyService(t, cfg.Metrics), nil
}
