package index

import (
	"slices"
	"sort"

	"fpinterop/internal/minutiae"
)

// referenceIndex is the pre-segment index kept as the specification the
// differential tests hold Index to: one map from key to a ref-sorted
// bucket of (template, multiplicity) postings, a vote that walks the
// buckets accumulating scores, hit counts and a touched list, and a
// full sort of everything touched. Key extraction is the original too —
// every neighbour of every minutia sorted, a map for the triplet
// dedup — so the bounded selection and the set that replaced them are
// checked by the same comparison.
type referenceIndex struct {
	buckets  map[uint64][]referencePosting
	ids      []string
	refs     map[string]uint32
	keys     [][]uint64
	free     []uint32
	postings int
}

type referencePosting struct {
	ref   uint32
	count uint32
}

func newReferenceIndex() *referenceIndex {
	return &referenceIndex{buckets: make(map[uint64][]referencePosting), refs: make(map[string]uint32)}
}

func (ix *referenceIndex) add(id string, tpl *minutiae.Template) {
	keys := referenceTemplateKeys(tpl.Minutiae)
	var ref uint32
	if n := len(ix.free); n > 0 {
		ref = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.ids[ref] = id
		ix.keys[ref] = keys
	} else {
		ref = uint32(len(ix.ids))
		ix.ids = append(ix.ids, id)
		ix.keys = append(ix.keys, keys)
	}
	ix.refs[id] = ref
	for _, key := range keys {
		bucket := ix.buckets[key]
		i := sort.Search(len(bucket), func(i int) bool { return bucket[i].ref >= ref })
		if i < len(bucket) && bucket[i].ref == ref {
			bucket[i].count++
			continue
		}
		bucket = append(bucket, referencePosting{})
		copy(bucket[i+1:], bucket[i:])
		bucket[i] = referencePosting{ref: ref, count: 1}
		ix.buckets[key] = bucket
		ix.postings++
	}
}

func (ix *referenceIndex) remove(id string) {
	ref := ix.refs[id]
	for _, key := range ix.keys[ref] {
		bucket := ix.buckets[key]
		i := sort.Search(len(bucket), func(i int) bool { return bucket[i].ref >= ref })
		if bucket[i].count--; bucket[i].count > 0 {
			continue
		}
		if len(bucket) == 1 {
			delete(ix.buckets, key)
		} else {
			ix.buckets[key] = append(bucket[:i], bucket[i+1:]...)
		}
		ix.postings--
	}
	delete(ix.refs, id)
	ix.ids[ref] = ""
	ix.keys[ref] = nil
	ix.free = append(ix.free, ref)
}

func (ix *referenceIndex) reset() { *ix = *newReferenceIndex() }

func (ix *referenceIndex) stats() Stats {
	return Stats{Templates: len(ix.refs), DistinctKeys: len(ix.buckets), Postings: ix.postings}
}

func (ix *referenceIndex) candidates(probe *minutiae.Template, fanout int) []Candidate {
	scores := make([]float64, len(ix.ids))
	hits := make([]int32, len(ix.ids))
	var touched []uint32
	for _, key := range referenceProbeKeys(probe.Minutiae) {
		bucket := ix.buckets[key]
		if len(bucket) == 0 || len(bucket) > maxBucket {
			continue
		}
		w := 1 / float64(len(bucket))
		for _, p := range bucket {
			if hits[p.ref] == 0 {
				touched = append(touched, p.ref)
			}
			scores[p.ref] += w
			hits[p.ref]++
		}
	}
	var out []Candidate
	for _, ref := range touched {
		out = append(out, Candidate{ID: ix.ids[ref], Score: scores[ref]})
	}
	slices.SortFunc(out, compareCandidates)
	if len(out) > fanout {
		out = out[:fanout]
	}
	return out
}

func referenceTriplets(ms []minutiae.Minutia, visit func(a, b, c minutiae.Minutia) bool) {
	type neighbor struct {
		d   float64
		idx int
	}
	n := len(ms)
	if n < 3 {
		return
	}
	seen := make(map[uint64]struct{})
	emitted := 0
	for i := 0; i < n && emitted < maxTriplets; i++ {
		var neigh []neighbor
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx := ms[i].X - ms[j].X
			dy := ms[i].Y - ms[j].Y
			neigh = append(neigh, neighbor{d: dx*dx + dy*dy, idx: j})
		}
		slices.SortFunc(neigh, func(a, b neighbor) int {
			if a.d != b.d {
				if a.d < b.d {
					return -1
				}
				return 1
			}
			return a.idx - b.idx
		})
		kk := min(neighborK, len(neigh))
		for x := 0; x < kk && emitted < maxTriplets; x++ {
			for y := x + 1; y < kk && emitted < maxTriplets; y++ {
				a, b, c := i, neigh[x].idx, neigh[y].idx
				if a > b {
					a, b = b, a
				}
				if b > c {
					b, c = c, b
				}
				if a > b {
					a, b = b, a
				}
				id := uint64(a)<<32 | uint64(b)<<16 | uint64(c)
				if _, dup := seen[id]; dup {
					continue
				}
				seen[id] = struct{}{}
				if visit(ms[a], ms[b], ms[c]) {
					emitted++
				}
			}
		}
	}
}

// referenceTemplateKeys returns a template's keys with multiplicity.
func referenceTemplateKeys(ms []minutiae.Minutia) []uint64 {
	var keys []uint64
	referenceTriplets(ms, func(a, b, c minutiae.Minutia) bool {
		t, ok := features(a, b, c)
		if ok {
			keys = append(keys, primaryKey(t))
		}
		return ok
	})
	return keys
}

func referenceProbeKeys(ms []minutiae.Minutia) []uint64 {
	var keys []uint64
	referenceTriplets(ms, func(a, b, c minutiae.Minutia) bool {
		t, ok := features(a, b, c)
		if ok {
			keys = appendProbeKeys(keys, t)
		}
		return ok
	})
	return keys
}
