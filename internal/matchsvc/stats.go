package matchsvc

import "fpinterop/internal/enc"

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
