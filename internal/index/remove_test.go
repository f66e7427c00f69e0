package index

import (
	"slices"
	"testing"
	"time"

	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
)

// TestRemoveRederivedEqualsReferenceAndBuild drives seeded histories of
// Add and Remove across merges — removing from the base and from the
// delta, and templates that took a freed delta ref, by RemoveKeys with
// re-derived keys and by Remove reading them off the postings — and
// holds the index to the map reference after every step and to a fresh
// Build over the live set every few steps: identical Stats, shortlists
// and score bits.
func TestRemoveRederivedEqualsReferenceAndBuild(t *testing.T) {
	removeRederivedEqualsReferenceAndBuild(t)
}

// TestRemoveRederivedEqualsReferenceAndBuildMultiBlock runs the same
// histories over bases cut into blocks of 8 templates.
func TestRemoveRederivedEqualsReferenceAndBuildMultiBlock(t *testing.T) {
	setBlockShift(t, multiBlockShift)
	removeRederivedEqualsReferenceAndBuild(t).requireMultiBlock(t)
}

func removeRederivedEqualsReferenceAndBuild(t *testing.T) (bt blockTrace) {
	cohort := population.NewCohort(rng.New(43), population.CohortOptions{Size: 40})
	tpls := captureGallery(t, cohort, "D0")
	probes := append(captureSample(t, cohort, "D0", 1)[:3], captureSample(t, cohort, "D2", 1)[3:5]...)
	steps := 150
	if testing.Short() {
		// Seed 1 makes its first reused-ref removal at step 61 and seed
		// 2 has every kind by step 36; 80 leaves room for both.
		steps = 80
	}
	for seed := uint64(1); seed <= 2; seed++ {
		r := rng.New(seed).Child("removal")
		ix, ref := New(Options{}), newReferenceIndex()
		var order []int // live templates in insertion order
		reused := make(map[int]bool)
		var fromBase, fromDelta, fromReused, merges int
		for step := 0; step < steps; step++ {
			i := r.Intn(len(tpls))
			at := -1
			for j, k := range order {
				if k == i {
					at = j
				}
			}
			base := ix.base
			if at >= 0 {
				if ix.loc[subjectID(i)]&deltaRef != 0 {
					fromDelta++
				} else {
					fromBase++
				}
				if reused[i] {
					fromReused++
				}
				// Every other removal supplies the keys; the rest find
				// them in the postings.
				remove := func() error { return ix.Remove(subjectID(i)) }
				if step%2 == 0 {
					remove = func() error { return ix.RemoveKeys(subjectID(i), AppendKeys(nil, tpls[i])) }
				}
				if err := remove(); err != nil {
					t.Fatal(err)
				}
				ref.remove(subjectID(i))
				order = append(order[:at], order[at+1:]...)
			} else {
				reused[i] = len(ix.delta.free) > 0
				if err := ix.Add(subjectID(i), tpls[i]); err != nil {
					t.Fatal(err)
				}
				ref.add(subjectID(i), tpls[i])
				order = append(order, i)
			}
			if ix.base != base {
				merges++
			}
			bt.observe(ix, base)
			requireEqualsReference(t, "after step", ix, ref, probes[step%len(probes):][:1])
			if step%10 == 9 || step == steps-1 {
				ids := make([]string, len(order))
				set := make([]*minutiae.Template, len(order))
				for j, k := range order {
					ids[j], set[j] = subjectID(k), tpls[k]
				}
				bulk, err := Build(Options{}, ids, keysFrom(set))
				if err != nil {
					t.Fatal(err)
				}
				requireEqualsReference(t, "fresh Build", bulk, ref, probes)
			}
		}
		if merges < 3 || fromBase == 0 || fromDelta == 0 || fromReused == 0 {
			t.Fatalf("seed %d: %d merges, %d base / %d delta / %d reused-ref removals; want 3+ merges and some of each",
				seed, merges, fromBase, fromDelta, fromReused)
		}
	}
	return bt
}

// TestRemoveRefusesMutatedTemplate: keys that are not the ones a
// template was added under — those of the template mutated since, or
// the right number of keys with one swapped — are refused by RemoveKeys
// with the index untouched, in the base and in the delta; the right
// keys in another order are accepted.
func TestRemoveRefusesMutatedTemplate(t *testing.T) {
	cohort := population.NewCohort(rng.New(44), population.CohortOptions{Size: 14})
	tpls := captureGallery(t, cohort, "D0")
	ix := New(Options{})
	for i, tpl := range tpls {
		if err := ix.Add(subjectID(i), tpl); err != nil {
			t.Fatal(err)
		}
	}
	last := len(tpls) - 1
	if ix.loc[subjectID(0)]&deltaRef != 0 || ix.loc[subjectID(last)]&deltaRef == 0 {
		t.Fatal("want template 0 in the base and the last in the delta")
	}
	other := AppendKeys(nil, tpls[1])
	for _, i := range []int{0, last} {
		keys := AppendKeys(nil, tpls[i])
		mutated := tpls[i].Clone()
		mutated.Minutiae = mutated.Minutiae[:len(mutated.Minutiae)/2]
		swapped := append([]uint64(nil), keys...)
		for _, k := range other {
			if !slices.Contains(keys, k) {
				swapped[len(swapped)/2] = k
				break
			}
		}
		for _, wrong := range []struct {
			name string
			keys []uint64
		}{
			{"mutated template", AppendKeys(nil, mutated)},
			{"one key swapped", swapped},
		} {
			before := ix.Stats()
			shortlist := ix.Candidates(tpls[i], 0)
			if err := ix.RemoveKeys(subjectID(i), wrong.keys); err == nil {
				t.Fatalf("template %d, %s: RemoveKeys succeeded", i, wrong.name)
			}
			if got := ix.Stats(); got != before {
				t.Fatalf("template %d, %s: failed RemoveKeys changed Stats: %+v, was %+v", i, wrong.name, got, before)
			}
			if got := ix.Candidates(tpls[i], 0); !sameShortlist(got, shortlist) {
				t.Fatalf("template %d, %s: failed RemoveKeys changed the shortlist", i, wrong.name)
			}
		}
		slices.Reverse(keys)
		if err := ix.RemoveKeys(subjectID(i), keys); err != nil {
			t.Fatalf("template %d: RemoveKeys with its keys reversed: %v", i, err)
		}
	}
}

// TestKeysDerivedOutsideWriteLock holds a vote's read lock while an Add
// runs: it must derive its keys while the vote is still in flight, so
// no key derivation waits for, or runs under, the write lock. (Removal
// derives none: RemoveKeys takes them, Remove reads the postings.)
func TestKeysDerivedOutsideWriteLock(t *testing.T) {
	cohort := population.NewCohort(rng.New(45), population.CohortOptions{Size: 14})
	tpls := captureGallery(t, cohort, "D0")
	last := len(tpls) - 1
	ix := New(Options{})
	for i := 0; i < last; i++ {
		if err := ix.Add(subjectID(i), tpls[i]); err != nil {
			t.Fatal(err)
		}
	}
	derived := make(chan struct{}, 1)
	saved := keysOf
	defer func() { keysOf = saved }()
	keysOf = func(ks *keyScratch, tpl *minutiae.Template) []uint64 {
		derived <- struct{}{}
		return ks.templateKeys(tpl.Minutiae)
	}

	ix.mu.RLock() // a vote in flight
	done := make(chan error, 1)
	go func() { done <- ix.Add(subjectID(last), tpls[last]) }()
	select {
	case <-derived:
	case <-time.After(10 * time.Second):
		t.Fatal("Add derived no keys while a vote held the read lock")
	}
	ix.mu.RUnlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
