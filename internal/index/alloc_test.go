package index

import (
	"math"
	"testing"

	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
)

// TestCandidatesAppendZeroAllocs is the asserting form of the PR-4 vote
// benchmarks: once the pooled accumulators and the caller's candidate
// buffer are warm, one full vote — probe key extraction, weights and
// delta scores under the read lock, the base's posting stream, and the
// bounded selection — performs zero heap allocations, whether the
// templates sit in the delta or in the base, and whether the base is
// one block or several. Candidate IDs are string headers copied out of
// the index's id tables, not fresh strings, so the collection pass is
// covered too.
func TestCandidatesAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; asserted in non-race builds")
	}
	cohort := population.NewCohort(rng.New(21), population.CohortOptions{Size: 12})
	tpls := captureGallery(t, cohort, "D0")
	ids := make([]string, len(tpls))
	for i := range tpls {
		ids[i] = subjectID(i)
	}
	zeroAllocs := func(name string, ix *Index) {
		probe := tpls[0]
		dst := make([]Candidate, 0, 32)
		lookup := func() {
			dst = ix.CandidatesAppend(dst[:0], probe, 8)
			if len(dst) == 0 {
				t.Fatal("probe retrieved no candidates")
			}
		}
		// Warm the vote pool and let dst reach its steady-state capacity.
		for i := 0; i < 10; i++ {
			lookup()
		}
		if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
			t.Fatalf("%s: vote allocates %.1f times per run; want 0", name, allocs)
		}
	}
	inDelta := New(Options{})
	for i, tpl := range tpls[:8] {
		if err := inDelta.Add(ids[i], tpl); err != nil {
			t.Fatal(err)
		}
	}
	zeroAllocs("delta", inDelta)
	// A base with a delta over it and a tombstone in it, laid out in
	// one block and then, once every vote on that one is done, in
	// blocks of 2 templates.
	inBase := func() *Index {
		ix, err := Build(Options{}, ids[:8], keysFrom(tpls))
		if err != nil {
			t.Fatal(err)
		}
		for i := 8; i < len(tpls); i++ {
			if err := ix.Add(ids[i], tpls[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Remove(ids[1]); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	zeroAllocs("base+delta", inBase())
	setBlockShift(t, 1)
	multi := inBase()
	if n := len(multi.base.blocks); n < 3 {
		t.Fatalf("multi-block base has %d blocks; want 3 or more", n)
	}
	zeroAllocs("blocks+delta", multi)
}

// TestTemplateKeysZeroAllocs holds Add's and Remove's key extraction —
// neighbour selection, triplet dedup, the certified key and its exact
// fallback, key dedup — to zero allocations once its scratch is warm:
// the index keeps no key list. Besides captures, the templates include
// a quantised lattice, whose distance ties send triplets to the exact
// path, and one with a NaN minutia, which the certified path refuses
// whole.
func TestTemplateKeysZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; asserted in non-race builds")
	}
	cohort := population.NewCohort(rng.New(22), population.CohortOptions{Size: 4})
	tpls := captureGallery(t, cohort, "D0")
	grid := &minutiae.Template{}
	for i, p := range lattice(5, 9) {
		grid.Minutiae = append(grid.Minutiae, at(p[0], p[1], float64(i)))
	}
	if _, unsure := fallbacks(grid.Minutiae); unsure == 0 {
		t.Fatal("lattice template takes no fallback")
	}
	refused := tpls[0].Clone()
	refused.Minutiae[0].X = math.NaN()
	tpls = append(tpls, grid, refused)
	var ks keyScratch
	extract := func() {
		for _, tpl := range tpls {
			if len(ks.templateKeys(tpl.Minutiae)) == 0 {
				t.Fatal("template produced no keys")
			}
		}
	}
	extract()
	if allocs := testing.AllocsPerRun(50, extract); allocs != 0 {
		t.Fatalf("key extraction allocates %.1f times per run; want 0", allocs)
	}
}
