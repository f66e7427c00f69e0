package index

import (
	"runtime"
	"testing"
	"unsafe"

	"fpinterop/internal/population"
	"fpinterop/internal/rng"
)

// TestHeapPerTemplate pins what the index retains per added template.
// Its key table — hash cells, key slots and each base block's bucket
// spans, which grow with the distinct keys and amortize over the
// gallery — is held to 20 B per distinct key beyond the hash cells:
// room for an 8-byte slot, one 4-byte span offset and append slack,
// not for a 24-byte slice header in every slot. The rest — postings,
// the template pointer, the ID and the delta's lists — is held under
// 1,700 B per template, which 16-bit refs meet and 32-bit refs (≈ 900
// B more at 451 postings per template) do not.
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
	cells := uintptr(len(ix.tab.cells)) * unsafe.Sizeof(keyCell{})
	keyed := uintptr(cap(ix.slots)) * unsafe.Sizeof(slot{})
	for _, blk := range ix.base.blocks {
		keyed += uintptr(cap(blk.off)) * unsafe.Sizeof(blk.off[0])
	}
	st := ix.Stats()
	table := float64(cells+keyed) / n
	perKey := float64(keyed) / float64(st.DistinctKeys)
	t.Logf("%.0f B retained per template, %.0f B of it the key table (%.1f B per distinct key beyond the hash cells; %.0f postings per template, %d distinct keys, %d blocks)",
		total, table, perKey, float64(st.Postings)/n, st.DistinctKeys, len(ix.base.blocks))
	if perKey >= 20 {
		t.Errorf("key slots and bucket spans take %.1f B per distinct key; want < 20", perKey)
	}
	if per := total - table; per >= 1700 {
		t.Errorf("index retains %.0f B per template beyond its key table; want < 1700", per)
	}
	runtime.KeepAlive(tpls)
	runtime.KeepAlive(ix)
}
