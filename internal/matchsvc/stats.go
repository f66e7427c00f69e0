package matchsvc

import (
	"fpinterop/internal/enc"
	"fpinterop/internal/gallery"
)

// ServiceStats is the OpStats payload: a point-in-time service summary
// the serving process assembles from whatever it actually runs —
// shard topology, index state, and write-ahead-log durability — so a
// remote client can surface the same Stats a local service would.
type ServiceStats struct {
	// Enrollments counts enrolled subjects (reachable shards only).
	Enrollments int
	// Shards is the number of backends serving the gallery.
	Shards int
	// DegradedShards names shards currently excluded from searches.
	DegradedShards []string
	// Indexed reports whether a retrieval index serves identifications.
	Indexed bool
	// WAL summarizes write-ahead-log state; nil when the serving
	// process is not durable.
	WAL *WALServiceStats
}

// WALServiceStats mirrors the WAL summary across the wire.
type WALServiceStats struct {
	SnapshotEntries int
	Replayed        int
	TruncatedBytes  int64
	TornTails       int
	LogBytes        int64
}

func encodeServiceStats(w *enc.Writer, st ServiceStats) error {
	w.Uint32(uint32(st.Enrollments))
	w.Uint32(uint32(st.Shards))
	w.Uint32(uint32(len(st.DegradedShards)))
	for _, name := range st.DegradedShards {
		if err := w.String(name); err != nil {
			return err
		}
	}
	indexed := uint32(0)
	if st.Indexed {
		indexed = 1
	}
	w.Uint32(indexed)
	if st.WAL == nil {
		w.Uint32(0)
		return nil
	}
	w.Uint32(1)
	w.Uint32(uint32(st.WAL.SnapshotEntries))
	w.Uint32(uint32(st.WAL.Replayed))
	w.Uint64(uint64(st.WAL.TruncatedBytes))
	w.Uint32(uint32(st.WAL.TornTails))
	w.Uint64(uint64(st.WAL.LogBytes))
	return nil
}

func decodeServiceStats(r *enc.Reader) (ServiceStats, error) {
	st := ServiceStats{Enrollments: int(r.Uint32()), Shards: int(r.Uint32())}
	for n := r.Count(2); n > 0; n-- { // a name is at least its length prefix
		st.DegradedShards = append(st.DegradedShards, r.String())
	}
	st.Indexed = r.Uint32() != 0
	if hasWAL := r.Uint32(); hasWAL != 0 {
		st.WAL = &WALServiceStats{
			SnapshotEntries: int(r.Uint32()),
			Replayed:        int(r.Uint32()),
			TruncatedBytes:  int64(r.Uint64()),
			TornTails:       int(r.Uint32()),
			LogBytes:        int64(r.Uint64()),
		}
	}
	return st, r.Err()
}

// encodeIdentify writes the OpIdentifyEx reply: the retrieval
// statistics, the candidates, then the coverage tail (shards queried,
// skipped, failed). The tail comes last so a reader that stops after
// the candidates still decodes the reply.
func encodeIdentify(w *enc.Writer, cands []gallery.Candidate, st gallery.IdentifyStats) error {
	w.Uint32(uint32(st.GallerySize))
	w.Uint32(uint32(st.Shortlist))
	w.Uint32(uint32(st.Scanned))
	indexed := uint32(0)
	if st.Indexed {
		indexed = 1
	}
	w.Uint32(indexed)
	w.Uint32(uint32(len(cands)))
	for _, c := range cands {
		if err := w.String(c.ID); err != nil {
			return err
		}
		if err := w.String(c.DeviceID); err != nil {
			return err
		}
		w.Float64(c.Score)
	}
	w.Uint32(uint32(st.ShardsQueried))
	w.Uint32(uint32(st.ShardsSkipped))
	w.Uint32(uint32(st.ShardsFailed))
	return nil
}

// decodeIdentify reads an OpIdentifyEx reply. Partial is not on the
// wire: it is skipped + failed > 0. A reply without the coverage tail
// (a server from before it) is a short payload, never a count of zero.
func decodeIdentify(r *enc.Reader) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	st := gallery.IdentifyStats{
		GallerySize: int(r.Uint32()),
		Shortlist:   int(r.Uint32()),
		Scanned:     int(r.Uint32()),
		Indexed:     r.Uint32() != 0,
	}
	// A candidate occupies at least 12 payload bytes (two empty strings
	// and a float64).
	cands := make([]gallery.Candidate, r.Count(12))
	for i := range cands {
		cands[i] = gallery.Candidate{ID: r.String(), DeviceID: r.String(), Score: r.Float64()}
	}
	st.ShardsQueried = int(r.Uint32())
	st.ShardsSkipped = int(r.Uint32())
	st.ShardsFailed = int(r.Uint32())
	st.Partial = st.ShardsSkipped+st.ShardsFailed > 0
	if err := r.Err(); err != nil {
		return nil, gallery.IdentifyStats{}, err
	}
	return cands, st, nil
}
