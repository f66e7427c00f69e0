package replica

// Replica read-scaling benchmarks: the same identify workload pushed
// through a Set with one member (a bare primary) versus three (primary
// plus two caught-up replicas). On multi-core hardware the three-member
// set spreads concurrent probes across independent galleries, so
// per-op latency under parallel load is the headline number. The pick
// benchmark pins the dispatch overhead the balancer itself adds to a
// read — it must stay in the tens of nanoseconds with zero heap
// traffic beyond the backend call.
//
// The repository benchmark (bash benchmark/run.sh --trace 1, see
// benchmark/) reports the same overhead as the replica.dispatch_ns rung
// of its layer ladder.

import (
	"context"
	"testing"

	"fpinterop/internal/gallery"
	"fpinterop/internal/shard"
)

// benchSet builds a Set whose members each hold a full copy of the
// fixture gallery — the steady state a caught-up replica group serves
// from.
func benchSet(b *testing.B, members int) *Set {
	b.Helper()
	gal, _ := fixtures(b)
	backends := make([]shard.Backend, members)
	for m := range backends {
		store := gallery.New(nil)
		for i, tpl := range gal {
			if err := store.Enroll(subjectID(i), "D0", tpl); err != nil {
				b.Fatal(err)
			}
		}
		backends[m] = shard.NewLocal(subjectID(m), store)
	}
	return NewSet("bench", backends[0], backends[1:], SetOptions{})
}

func benchIdentify(b *testing.B, members int) {
	set := benchSet(b, members)
	_, probes := fixtures(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			probe := probes[i%len(probes)]
			i++
			cands, _, err := set.IdentifyDetailed(context.Background(), probe, 3)
			if err != nil {
				b.Fatal(err)
			}
			if len(cands) == 0 {
				b.Fatal("empty ranking")
			}
		}
	})
}

func BenchmarkReplicaIdentifyMembers1(b *testing.B) { benchIdentify(b, 1) }
func BenchmarkReplicaIdentifyMembers3(b *testing.B) { benchIdentify(b, 3) }

// BenchmarkReplicaSetDispatch isolates the balancer itself: health
// check, member pick, inflight accounting, and metrics around a no-op
// backend read.
func BenchmarkReplicaSetDispatch(b *testing.B) {
	backends := []shard.Backend{
		&fakeBackend{name: "m0"},
		&fakeBackend{name: "m1"},
		&fakeBackend{name: "m2"},
	}
	set := NewSet("bench", backends[0], backends[1:], SetOptions{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := set.IdentifyDetailed(ctx, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
}
