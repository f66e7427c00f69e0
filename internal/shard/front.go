package shard

import (
	"context"

	"fpinterop/internal/gallery"
	"fpinterop/internal/minutiae"
)

// Fold collapses scatter-gather statistics into the single-store
// gallery.IdentifyStats shape (sums of sizes, shortlists, and scans;
// Indexed when every answering shard served from its retrieval index),
// so sharded searches report through interfaces built around one store.
func (s IdentifyStats) Fold() gallery.IdentifyStats {
	return gallery.IdentifyStats{
		GallerySize: s.GallerySize,
		Shortlist:   s.Shortlist,
		Scanned:     s.Scanned,
		Indexed:     s.IndexedShards > 0 && s.FallbackShards == 0,
	}
}

// Front is a Router as one matchsvc.Backend, so a matchd process serves
// a sharded gallery through the same dispatch as a single store — and
// a front can itself be a shard of a router further up. Enroll,
// EnrollBatch, Remove and Verify are the router's own methods; the
// shim only reshapes what the contract words differently: the
// per-shard identify statistics fold into the single-store shape, and
// Len gains the error slot. The caller's context — built by the server
// from the request's wire budget — reaches every shard leg unchanged.
type Front struct {
	*Router
}

func (f Front) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	cands, st, err := f.Router.IdentifyDetailed(ctx, probe, k)
	return cands, st.Fold(), err
}

// Len sums the reachable shards; an unreachable one contributes zero
// rather than an error, as on the router.
func (f Front) Len(ctx context.Context) (int, error) {
	n := f.Router.Len(ctx)
	return n, ctx.Err()
}
