package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fpinterop/internal/gallery"
)

// localStores returns the gallery stores behind a router built by
// localRouter (plus any Local added later).
func localStores(r *Router) []*gallery.Store {
	bs := r.Backends()
	out := make([]*gallery.Store, len(bs))
	for i, b := range bs {
		out[i] = b.(*Local).Store.(*gallery.Store)
	}
	return out
}

func TestAddShardValidation(t *testing.T) {
	r := localRouter(t, 3, Options{})
	if _, err := r.AddShard(NewLocal("shard-1", gallery.New(nil))); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate name: err = %v", err)
	}
	rb, err := r.AddShard(NewLocal("shard-3", gallery.New(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddShard(NewLocal("shard-4", gallery.New(nil))); !errors.Is(err, ErrMigrationInProgress) {
		t.Fatalf("second migration: err = %v", err)
	}
	if _, err := rb.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if r.Migrating() {
		t.Fatal("migration still flagged after cutover")
	}
	if _, err := rb.Run(ctx); err == nil {
		t.Fatal("completed rebalancer ran again")
	}
}

func TestRebalanceMovesOnlyRingMovedKeys(t *testing.T) {
	gal, _ := fixtures(t)
	const n = 120
	r := localRouter(t, 3, Options{})
	oldOwner := make(map[string]int, n)
	for i := 0; i < n; i++ {
		id := subjectID(i)
		oldOwner[id] = r.Owner(id)
		if err := r.Enroll(ctx, id, "D0", gal[i%len(gal)]); err != nil {
			t.Fatal(err)
		}
	}
	join := NewLocal("shard-3", gallery.New(nil))
	rb, err := r.AddShard(join)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rb.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moved != join.Store.Len() {
		t.Fatalf("stats.Moved = %d, joining shard holds %d", stats.Moved, join.Store.Len())
	}
	if stats.Moved == 0 {
		t.Fatal("no keys moved to the joining shard; fixture too small to exercise migration")
	}
	if total := r.Len(ctx); total != n {
		t.Fatalf("Len = %d after rebalance, want %d", total, n)
	}
	stores := localStores(r)
	for i := 0; i < n; i++ {
		id := subjectID(i)
		owner := r.Owner(id)
		copies := 0
		for _, s := range stores {
			if s.Has(id) {
				copies++
			}
		}
		if copies != 1 {
			t.Fatalf("%q has %d copies, want 1", id, copies)
		}
		if !stores[owner].Has(id) {
			t.Fatalf("%q not on its ring owner %d", id, owner)
		}
		if owner != 3 && owner != oldOwner[id] {
			t.Fatalf("%q moved between old shards (%d -> %d); only keys bound for the joining shard may move",
				id, oldOwner[id], owner)
		}
	}
}

// TestMigrationServingInvariants pins the dual-read/write behavior of a
// router frozen mid-migration (shard added, rebalancer not yet run, or
// a subject manually doubled to simulate a mid-flight move).
func TestMigrationServingInvariants(t *testing.T) {
	gal, probes := fixtures(t)
	const n = 24
	r := localRouter(t, 3, Options{})
	single := gallery.New(nil)
	for i := 0; i < n; i++ {
		id := subjectID(i)
		if err := r.Enroll(ctx, id, "D0", gal[i%len(gal)]); err != nil {
			t.Fatal(err)
		}
		if err := single.Enroll(id, "D0", gal[i%len(gal)]); err != nil {
			t.Fatal(err)
		}
	}
	join := NewLocal("shard-3", gallery.New(nil))
	rb, err := r.AddShard(join)
	if err != nil {
		t.Fatal(err)
	}

	// Every pre-migration subject still lives on an OLD shard, yet all
	// verifications and identifications must keep working.
	for i := 0; i < n; i++ {
		if _, err := r.Verify(ctx, subjectID(i), probes[i%len(probes)]); err != nil {
			t.Fatalf("verify %q mid-migration: %v", subjectID(i), err)
		}
	}
	// Duplicate enrollments must be caught even when ownership moved.
	for i := 0; i < n; i++ {
		err := r.Enroll(ctx, subjectID(i), "D0", gal[i%len(gal)])
		if !errors.Is(err, gallery.ErrDuplicate) {
			t.Fatalf("duplicate enroll %q mid-migration: err = %v, want ErrDuplicate", subjectID(i), err)
		}
	}
	// Simulate the rebalancer mid-move: one subject copied to the
	// joining shard, old copy not yet retired. Identification must
	// dedup it and stay bit-identical to the single store.
	doubled := ""
	for i := 0; i < n; i++ {
		id := subjectID(i)
		if rb.newRing.owner(id) == rb.joining {
			doubled = id
			if err := join.Store.Enroll(id, "D0", gal[i%len(gal)]); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if doubled == "" {
		t.Fatal("no subject moves to the joining shard; fixture too small")
	}
	for pi, probe := range probes {
		got, err := r.Identify(ctx, probe, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.IdentifyContext(ctx, probe, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("probe %d: %d candidates (doubled subject not deduped?), single store has %d",
				pi, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
				t.Fatalf("probe %d rank %d: sharded (%q, %v) vs single (%q, %v)",
					pi, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}
	// Removing the doubled subject must retire BOTH copies.
	if err := r.Remove(ctx, doubled); err != nil {
		t.Fatal(err)
	}
	for si, s := range localStores(r) {
		if s.Has(doubled) {
			t.Fatalf("removed subject %q still on shard %d", doubled, si)
		}
	}
	// And the rebalance still converges afterwards.
	if _, err := rb.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r.Len(ctx); got != n-1 {
		t.Fatalf("Len = %d after cutover, want %d", got, n-1)
	}
}

// TestGrowFourToEightUnderLoad is the acceptance test for online
// resharding: a 4-shard router grows to 8 while enrollments, removals,
// verifications, and identifications hammer it from concurrent
// goroutines (run under -race in CI). Afterwards: zero lost
// enrollments, zero resurrected removals, every subject on exactly its
// ring owner, and identification rankings bit-identical to a single
// store over the same survivors.
func TestGrowFourToEightUnderLoad(t *testing.T) {
	gal, probes := fixtures(t)
	const base = 160 // enrolled before the migrations
	r := localRouter(t, 4, Options{})
	for i := 0; i < base; i++ {
		if err := r.Enroll(ctx, subjectID(i), "D0", gal[i%len(gal)]); err != nil {
			t.Fatal(err)
		}
	}

	var (
		mu       sync.Mutex
		enrolled = make(map[string]int) // id -> template index
		removed  = make(map[string]bool)
	)
	for i := 0; i < base; i++ {
		enrolled[subjectID(i)] = i % len(gal)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writer: keeps enrolling fresh subjects and removing a fraction of
	// the existing ones while shards join.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := rand.New(rand.NewSource(1))
		next := base
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := subjectID(next)
			ti := next % len(gal)
			if err := r.Enroll(ctx, id, "D0", gal[ti]); err != nil {
				t.Errorf("enroll %q under load: %v", id, err)
				return
			}
			mu.Lock()
			enrolled[id] = ti
			mu.Unlock()
			next++
			if rnd.Intn(4) == 0 {
				victim := subjectID(rnd.Intn(next))
				mu.Lock()
				_, live := enrolled[victim]
				mu.Unlock()
				if live {
					if err := r.Remove(ctx, victim); err != nil {
						t.Errorf("remove %q under load: %v", victim, err)
						return
					}
					mu.Lock()
					delete(enrolled, victim)
					removed[victim] = true
					mu.Unlock()
				}
			}
		}
	}()
	// Readers: identification and verification race the migrations.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Identify(ctx, probes[rnd.Intn(len(probes))], 5); err != nil {
					t.Errorf("identify under load: %v", err)
					return
				}
				i := rnd.Intn(base)
				mu.Lock()
				_, live := enrolled[subjectID(i)]
				mu.Unlock()
				if live {
					// A racing remove can retire the subject between the
					// check and the verify; only systematic failures matter,
					// and those surface as lost enrollments below.
					r.Verify(ctx, subjectID(i), probes[i%len(probes)])
				}
			}
		}(int64(w))
	}

	// Grow 4 -> 8, one joining shard at a time, under the load above.
	for s := 4; s < 8; s++ {
		join := NewLocal(fmt.Sprintf("shard-%d", s), gallery.New(nil))
		rb, err := r.AddShard(join)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rb.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Zero lost enrollments, zero resurrections, exactly one copy each,
	// and every copy on its ring owner.
	stores := localStores(r)
	if len(stores) != 8 {
		t.Fatalf("router has %d shards, want 8", len(stores))
	}
	total := 0
	for _, s := range stores {
		total += s.Len()
	}
	if total != len(enrolled) {
		t.Fatalf("shards hold %d subjects, %d were acknowledged (lost or duplicated enrollments)",
			total, len(enrolled))
	}
	for id := range enrolled {
		owner := r.Owner(id)
		copies := 0
		for _, s := range stores {
			if s.Has(id) {
				copies++
			}
		}
		if copies != 1 || !stores[owner].Has(id) {
			t.Fatalf("%q: %d copies, on owner: %v", id, copies, stores[owner].Has(id))
		}
	}
	for id := range removed {
		for si, s := range stores {
			if s.Has(id) {
				t.Fatalf("removed subject %q resurrected on shard %d", id, si)
			}
		}
	}

	// Bit-identical rankings: a single store over the survivors must
	// produce exactly the sharded router's identification results.
	single := gallery.New(nil)
	for id, ti := range enrolled {
		if err := single.Enroll(id, "D0", gal[ti]); err != nil {
			t.Fatal(err)
		}
	}
	for pi, probe := range probes {
		got, err := r.Identify(ctx, probe, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.IdentifyContext(ctx, probe, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("probe %d: %d candidates vs single store's %d", pi, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].DeviceID != want[i].DeviceID || got[i].Score != want[i].Score {
				t.Fatalf("probe %d rank %d: sharded (%q, %v) vs single (%q, %v)",
					pi, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}
}
