package index

import (
	"runtime"
	"testing"
	"unsafe"

	"fpinterop/internal/population"
	"fpinterop/internal/rng"
)

// TestHeapPerTemplate pins what the index retains per added template
// beyond its per-key table (the hash cells and key slots, which grow
// with the distinct keys and amortize over the gallery): postings, the
// template pointer and the ID. Under 3 KB leaves no room for a copy of
// each template's ≈ 3.6 KB key list creeping back.
func TestHeapPerTemplate(t *testing.T) {
	const n = 2000
	cohort := population.NewCohort(rng.New(41), population.CohortOptions{Size: n})
	tpls := captureGallery(t, cohort, "D0")
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	ix := New(Options{})
	for i, tpl := range tpls {
		if err := ix.Add(subjectID(i), tpl); err != nil {
			t.Fatal(err)
		}
	}
	total := float64(heap()-before) / n
	table := float64(uintptr(len(ix.tab.cells))*unsafe.Sizeof(keyCell{})+uintptr(cap(ix.slots))*unsafe.Sizeof(slot{})) / n
	st := ix.Stats()
	t.Logf("%.0f B retained per template, %.0f B of it the key table (%.0f postings per template, %d distinct keys)",
		total, table, float64(st.Postings)/n, st.DistinctKeys)
	if per := total - table; per >= 3000 {
		t.Fatalf("index retains %.0f B per template beyond its key table; want < 3000", per)
	}
	runtime.KeepAlive(tpls)
	runtime.KeepAlive(ix)
}
