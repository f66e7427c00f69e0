package fpis

import (
	"context"

	"fpinterop/internal/gallery"
	"fpinterop/internal/index"
	"fpinterop/internal/shard"
	"fpinterop/internal/wal"
)

// localService serves the facade from one in-process gallery store,
// optionally made durable by a write-ahead log.
type localService struct {
	// backend is the store behind the same adapter a local shard uses:
	// the plain gallery, or — built with WithWAL — the WAL-backed store
	// whose mutations are durable before they are acknowledged.
	backend *shard.Local
	store   *gallery.Store
	// wal is the WAL-backed store when there is one; Close owns it and
	// Stats reports its recovery and log state.
	wal *wal.Store
}

// indexOptions translates the facade's index knobs to the store's.
func indexOptions(c config) gallery.IndexOptions {
	return gallery.IndexOptions{Index: index.Options{Fanout: c.indexFanout}}
}

func newLocal(cfg config) (Service, error) {
	store := gallery.New(nil)
	if cfg.setParallelism {
		store.SetParallelism(cfg.parallelism)
	}
	if cfg.index {
		// Enabled before recovery so the WAL replay's bulk load builds
		// the index once instead of record by record.
		if err := store.EnableIndex(indexOptions(cfg)); err != nil {
			return nil, err
		}
	}
	if cfg.metrics != nil {
		store.SetMetrics(cfg.metrics, "local")
	}
	svc := &localService{backend: shard.NewLocal("local", store), store: store}
	if cfg.walDir != "" {
		ws, err := wal.Open(cfg.walDir, store, wal.Options{
			CompactEvery: cfg.compactEvery,
			Metrics:      cfg.metrics,
			Shard:        "local",
		})
		if err != nil {
			return nil, err
		}
		svc.backend, svc.wal = shard.NewLocal("local", ws), ws
	}
	return svc, nil
}

func (s *localService) Enroll(ctx context.Context, id, deviceID string, tpl *Template) error {
	return s.backend.Enroll(ctx, id, deviceID, tpl)
}

func (s *localService) EnrollBatch(ctx context.Context, items []Enrollment) error {
	return s.backend.EnrollBatch(ctx, items)
}

func (s *localService) Remove(ctx context.Context, id string) error {
	return s.backend.Remove(ctx, id)
}

func (s *localService) Verify(ctx context.Context, id string, probe *Template) (MatchResult, error) {
	return s.backend.Verify(ctx, id, probe)
}

func (s *localService) Identify(ctx context.Context, probe *Template, k int) ([]Candidate, error) {
	out, _, err := s.IdentifyDetailed(ctx, probe, k)
	return out, err
}

func (s *localService) IdentifyDetailed(ctx context.Context, probe *Template, k int) ([]Candidate, IdentifyStats, error) {
	cands, st, err := s.backend.IdentifyDetailed(ctx, probe, k)
	if err != nil {
		return nil, IdentifyStats{}, err
	}
	return cands, foldGalleryStats(st), nil
}

// foldGalleryStats lifts single-store retrieval statistics into the
// facade shape (one shard, queried, full coverage).
func foldGalleryStats(st gallery.IdentifyStats) IdentifyStats {
	return IdentifyStats{
		GallerySize:   st.GallerySize,
		Shortlist:     st.Shortlist,
		Scanned:       st.Scanned,
		Indexed:       st.Indexed,
		ShardsQueried: 1,
	}
}

func (s *localService) Stats(ctx context.Context) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	_, indexed := s.store.IndexStats()
	st := Stats{
		Enrollments: s.store.Len(),
		Shards:      1,
		Indexed:     indexed,
	}
	if s.wal != nil {
		ws, err := foldWALStats([]*wal.Store{s.wal})
		if err != nil {
			return Stats{}, err
		}
		st.WAL = ws
	}
	return st, nil
}

// foldWALStats aggregates per-shard recovery and log state into the
// facade's WAL summary.
func foldWALStats(stores []*wal.Store) (*WALStats, error) {
	var out WALStats
	for _, ws := range stores {
		rec := ws.Recovery()
		out.SnapshotEntries += rec.SnapshotEntries
		out.Replayed += rec.Replayed
		out.TruncatedBytes += rec.TruncatedBytes
		if rec.TornTail {
			out.TornTails++
		}
		size, err := ws.LogSize()
		if err != nil {
			return nil, err
		}
		out.LogBytes += size
	}
	return &out, nil
}

func (s *localService) Close() error {
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}
