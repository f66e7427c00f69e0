// Package index implements candidate retrieval for 1:N fingerprint
// identification: a geometric-hashing index over minutia triplets that
// maps a probe template to a scored shortlist of enrolled templates in
// time sub-linear in the gallery size, so the full matcher only runs on
// the shortlist. This is the retrieval stage a central matching service
// (the deployment the paper's discussion section contemplates) needs
// before a million-user gallery becomes searchable at interactive
// latency.
//
// Each template is reduced to a set of local minutia triplets (every
// minutia with pairs of its nearest neighbours). A triplet is described
// by features invariant to rotation and translation of the capture
// window: the three side lengths of the triangle, and at each vertex
// the angle between the minutia ridge direction and the direction to
// the triangle centroid. Quantizing those six features yields a hash
// key; the index maps each key to the templates containing such a
// triplet. A probe votes with its own triplet keys — probing
// neighbouring quantization bins near bin boundaries to absorb sensor
// noise — and the most-voted templates form the candidate shortlist.
// Votes are weighted by key rarity (1/bucket size): a triplet shape
// shared by thousands of templates carries almost no identity signal,
// while a rare one is strong evidence, and without the weighting the
// random-collision vote floor grows with the gallery and drowns the
// genuine signal.
package index

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fpinterop/internal/minutiae"
)

var (
	// ErrDuplicate reports an already-indexed template ID.
	ErrDuplicate = errors.New("index: template ID already indexed")
	// ErrNotFound reports an unknown template ID.
	ErrNotFound = errors.New("index: template ID not indexed")
)

// Options configures retrieval. Triplet extraction and quantization are
// fixed (see keys.go).
type Options struct {
	// Fanout is the default shortlist size returned by Candidates when
	// the caller passes fanout <= 0 (default 64).
	Fanout int
}

const (
	// maxBucket skips keys held by more templates than this during
	// lookup: they carry almost no identity information but dominate
	// voting cost. There is no matching floor on hits: one hit makes a
	// template eligible, and rarity weighting already pushes incidental
	// collisions to the bottom of the ranking.
	maxBucket = 4096
	// mergeFloor is the least number of postings written to the delta
	// or tombstoned in the base before a merge: below it a merge would
	// run on nearly every Add to a small index.
	mergeFloor = 4096
	// deltaRef tags a template location as a delta ref.
	deltaRef = 1 << 31
)

// Index is a concurrent-safe triplet index. The zero value is NOT
// ready; use New or Build.
//
// Storage is an immutable base segment plus a small mutable delta, over
// one key table whose slots carry, per key, the base bucket, the delta
// postings and a live count: how many templates, base or delta, hold
// the key now. Add writes the delta; Remove deletes from the delta or
// tombstones the base; both keep the live counts exact, so a bucket's
// weight is always 1/(templates currently holding the key), what an
// index built from scratch over the live set computes. Once the
// postings added or tombstoned since the last merge pass an eighth of
// the base, the mutation that crossed the line folds both into a new
// base. A vote takes its weights and scores the delta under the read
// lock, then streams the base's postings with no lock held.
type Index struct {
	opt Options

	mu sync.RWMutex
	// tab maps every key some template was enrolled under since the
	// last merge to its entry in slots.
	tab   keyTable
	slots []slot
	base  *segment
	delta delta
	// loc maps a template ID to its ref: a base ref, or a delta ref
	// tagged with deltaRef.
	loc map[string]uint32
	// postings counts live (key, template) pairs, distinct the keys
	// with at least one.
	postings, distinct int
	// churn counts postings written to the delta or tombstoned in the
	// base since the last merge.
	churn int
}

// delta holds the templates added since the last merge; their postings
// hang off the key slots. Refs are local to it and reusable at once:
// votes read it only under Index.mu.
type delta struct {
	// ids maps a delta ref to its template ID ("" = free), members to
	// the template; free lists reusable refs.
	ids     []string
	members []member
	free    []uint32
}

// New returns an empty index with the given options (zero value for
// defaults).
func New(opt Options) *Index {
	if opt.Fanout <= 0 {
		opt.Fanout = 64
	}
	return &Index{opt: opt, base: emptySegment, loc: make(map[string]uint32)}
}

// Build returns an index over the given templates (tpls[i] under
// ids[i]), equal to Adding them to New(opt) one by one: keys are
// extracted on all CPUs while the calling goroutine adds each template
// as soon as it and all before it are extracted, and the base segment
// is laid out once, with no merges on the way. The index keeps the
// templates, as Add does; every worker has exited when it returns.
func Build(opt Options, ids []string, tpls []*minutiae.Template) (*Index, error) {
	ix := New(opt)
	for i, id := range ids {
		if tpls[i] == nil {
			return nil, fmt.Errorf("index: add %q: nil template", id)
		}
	}
	// Worker w extracts templates w, w+workers, ... in order into its own
	// short channel, so template i is the next receive from channel
	// i%workers and a few key lists are live at a time, not n. Closing
	// done on return releases a worker blocked on a full channel. Depth
	// 16 is measured in EXPERIMENTS.md, "Replica bootstrap".
	workers := min(runtime.GOMAXPROCS(0), len(ids))
	out := make([]chan []uint64, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(done); wg.Wait() }()
	for w := range out {
		out[w] = make(chan []uint64, 16)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ids); i += workers {
				select {
				case out[w] <- AppendKeys(nil, tpls[i]):
				case <-done:
					return
				}
			}
		}()
	}
	for i, id := range ids {
		if err := ix.add(id, tpls[i], <-out[i%workers]); err != nil {
			return nil, err
		}
	}
	ix.merge()
	return ix, nil
}

// Options returns the resolved option set the index runs with.
func (ix *Index) Options() Options { return ix.opt }

var keyPool = sync.Pool{New: func() any { return new(keyScratch) }}

// keysOf extracts tpl's keys into ks for an Add or Remove. Tests swap
// it to check that no caller holds Index.mu while it runs.
var keysOf = func(ks *keyScratch, tpl *minutiae.Template) []uint64 {
	return ks.templateKeys(tpl.Minutiae)
}

// AppendKeys appends the keys AddKeys and RemoveKeys take for tpl to
// dst. It depends on no index, so callers that serialize their own
// writers run it before taking their lock, and the index keeps none of
// the result, so they can reuse dst.
func AppendKeys(dst []uint64, tpl *minutiae.Template) []uint64 {
	ks := keyPool.Get().(*keyScratch)
	dst = append(dst, ks.templateKeys(tpl.Minutiae)...)
	keyPool.Put(ks)
	return dst
}

// Add indexes a template under id. Templates with fewer than three
// usable minutiae index no triplets; they are still registered (and can
// be Removed) but will never be retrieved — callers relying on a recall
// guard fall back to exhaustive search for such galleries. The index
// keeps tpl, not its keys: Remove derives them again, so tpl must not
// change while it is indexed.
func (ix *Index) Add(id string, tpl *minutiae.Template) error {
	if tpl == nil {
		return fmt.Errorf("index: add %q: nil template", id)
	}
	ks := keyPool.Get().(*keyScratch)
	err := ix.AddKeys(id, tpl, keysOf(ks, tpl))
	keyPool.Put(ks)
	return err
}

// AddKeys is Add with the key extraction already done: keys must be
// AppendKeys(nil, tpl). The index keeps tpl but not keys.
func (ix *Index) AddKeys(id string, tpl *minutiae.Template, keys []uint64) error {
	if tpl == nil {
		return fmt.Errorf("index: add %q: nil template", id)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.add(id, tpl, keys); err != nil {
		return err
	}
	ix.maybeMerge()
	return nil
}

// add enrolls id into the delta.
func (ix *Index) add(id string, tpl *minutiae.Template, keys []uint64) error {
	if _, ok := ix.loc[id]; ok {
		return fmt.Errorf("add %q: %w", id, ErrDuplicate)
	}
	d := &ix.delta
	m := member{tpl: tpl, keys: uint32(len(keys))}
	var ref uint32
	if n := len(d.free); n > 0 {
		ref = d.free[n-1]
		d.free = d.free[:n-1]
		d.ids[ref], d.members[ref] = id, m
	} else {
		ref = uint32(len(d.ids))
		d.ids = append(d.ids, id)
		d.members = append(d.members, m)
	}
	ix.loc[id] = ref | deltaRef
	for _, key := range keys {
		s, added := ix.tab.findOrAdd(key)
		if added {
			ix.slots = append(ix.slots, slot{})
		}
		sl := &ix.slots[s]
		if sl.live == 0 {
			ix.distinct++
		}
		sl.live++
		sl.delta = append(sl.delta, ref)
	}
	ix.postings += len(keys)
	ix.churn += len(keys)
	return nil
}

// errReplaced reports that the ID was removed and added again between
// the template lookup and the removal; Remove derives the keys anew.
var errReplaced = errors.New("index: template replaced since its keys were derived")

// Remove drops a template from the index. Its keys are derived again
// from the template Add kept, with Index.mu not held.
func (ix *Index) Remove(id string) error {
	ks := keyPool.Get().(*keyScratch)
	defer keyPool.Put(ks)
	for {
		ix.mu.RLock()
		var tpl *minutiae.Template
		if ref, ok := ix.loc[id]; ok {
			tpl = ix.member(ref).tpl
		}
		ix.mu.RUnlock()
		if tpl == nil {
			return fmt.Errorf("remove %q: %w", id, ErrNotFound)
		}
		if err := ix.RemoveKeys(id, tpl, keysOf(ks, tpl)); !errors.Is(err, errReplaced) {
			return err
		}
	}
}

// member returns the template a ref names. Callers hold Index.mu.
func (ix *Index) member(ref uint32) *member {
	if ref&deltaRef != 0 {
		return &ix.delta.members[ref&^deltaRef]
	}
	return &ix.base.members[ref]
}

// RemoveKeys is Remove with the key extraction already done: tpl must
// be the template id was added with and keys AppendKeys(nil, tpl). It
// fails, changing nothing, when the keys are not the ones tpl was added
// under — tpl was mutated since — as far as their count and the key
// table tell.
func (ix *Index) RemoveKeys(id string, tpl *minutiae.Template, keys []uint64) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ref, ok := ix.loc[id]
	if !ok {
		return fmt.Errorf("remove %q: %w", id, ErrNotFound)
	}
	m := ix.member(ref)
	if m.tpl != tpl {
		return fmt.Errorf("remove %q: %w", id, errReplaced)
	}
	if int(m.keys) != len(keys) || !ix.holds(ref, keys) {
		return fmt.Errorf("index: remove %q: template changed since it was added (%d keys now, %d then)", id, len(keys), m.keys)
	}
	delete(ix.loc, id)
	*m = member{}
	ix.postings -= len(keys)
	if ref&deltaRef != 0 {
		ref &^= deltaRef
		d := &ix.delta
		for _, key := range keys {
			sl := ix.release(key)
			i := slices.Index(sl.delta, ref)
			sl.delta[i] = sl.delta[len(sl.delta)-1]
			sl.delta = sl.delta[:len(sl.delta)-1]
		}
		d.ids[ref] = ""
		d.free = append(d.free, ref)
		return nil
	}
	// A base template's postings stay until the next merge; it stops
	// counting towards its keys' weights now.
	for _, key := range keys {
		ix.release(key)
	}
	ix.churn += len(keys)
	base := ix.base
	base.removed++
	base.gone[ref].Store(base.removed)
	ix.maybeMerge()
	return nil
}

// holds reports whether every key is live in the table and, for a
// delta ref, lists ref among its postings: what Remove needs to undo an
// add without touching another template's counts.
func (ix *Index) holds(ref uint32, keys []uint64) bool {
	for _, key := range keys {
		s, ok := ix.tab.find(key)
		if !ok || ix.slots[s].live == 0 {
			return false
		}
		if ref&deltaRef != 0 && !slices.Contains(ix.slots[s].delta, ref&^deltaRef) {
			return false
		}
	}
	return true
}

// release records one template fewer holding key and returns the key's
// slot.
func (ix *Index) release(key uint64) *slot {
	s, _ := ix.tab.find(key)
	sl := &ix.slots[s]
	if sl.live--; sl.live == 0 {
		ix.distinct--
	}
	return sl
}

// maybeMerge merges once the postings written to the delta or
// tombstoned in the base pass an eighth of the base's: merge cost is
// linear in the base, so each posting is rewritten a bounded number of
// times however large the index grows.
func (ix *Index) maybeMerge() {
	if ix.churn >= max(len(ix.base.refs)/8, mergeFloor) {
		ix.merge()
	}
}

// merge folds the delta and the base's tombstones into a new base:
// templates are renumbered densely (base survivors in order, then the
// delta's), each live key's bucket is the base's surviving refs
// followed by the delta's, and keys nobody holds any more are dropped.
func (ix *Index) merge() {
	old, d := ix.base, &ix.delta
	n := len(ix.loc)
	seg := &segment{
		refs:    make([]uint32, ix.postings),
		ids:     make([]string, 0, n),
		members: make([]member, 0, n),
		gone:    make([]atomic.Uint32, n),
	}
	keep := func(id string, m member) uint32 {
		ref := uint32(len(seg.ids))
		ix.loc[id] = ref
		seg.ids = append(seg.ids, id)
		seg.members = append(seg.members, m)
		return ref
	}
	baseRemap := make([]uint32, len(old.ids))
	for ref, id := range old.ids {
		if old.gone[ref].Load() != 0 {
			baseRemap[ref] = deadRef
		} else {
			baseRemap[ref] = keep(id, old.members[ref])
		}
	}
	deltaRemap := make([]uint32, len(d.ids))
	for ref, id := range d.ids {
		if id != "" {
			deltaRemap[ref] = keep(id, d.members[ref])
		}
	}

	tab := newKeyTable(ix.distinct)
	slots := make([]slot, 0, ix.distinct)
	at := uint32(0)
	for _, c := range ix.tab.cells {
		if c.key == 0 {
			continue
		}
		sl := &ix.slots[c.slot]
		if sl.live == 0 {
			continue
		}
		lo := at
		for _, ref := range old.refs[sl.lo:sl.hi] {
			if nr := baseRemap[ref]; nr != deadRef {
				seg.refs[at] = nr
				at++
			}
		}
		for _, ref := range sl.delta {
			seg.refs[at] = deltaRemap[ref]
			at++
		}
		tab.findOrAdd(c.key - 1)
		slots = append(slots, slot{lo: lo, hi: at, live: sl.live})
	}
	ix.tab, ix.slots, ix.base, ix.delta = tab, slots, seg, delta{}
	ix.churn = 0
}

// Candidate is one retrieved template.
type Candidate struct {
	// ID is the template identifier passed to Add.
	ID string
	// Score is the rarity-weighted vote mass: each (probe triplet,
	// bucket) hit contributes 1/bucketSize, so matching a rare triplet
	// shape counts for far more than a generic one.
	Score float64
}

// span is one base bucket a vote streams, with the weight of its key.
type span struct {
	lo, hi uint32
	w      float64
}

// voteScratch recycles what one lookup needs. The dense accumulators
// are sized by the gallery, not the probe — without pooling a 50k-
// template index allocates (and zeroes) ~400 KiB per identification —
// and are all zero whenever the scratch sits in the pool.
type voteScratch struct {
	keyScratch
	spans  []span
	scores []float64 // per base ref
	delta  []float64 // per delta ref
}

var votePool = sync.Pool{New: func() any { return new(voteScratch) }}

// zeroed returns buf resliced to n zeros, reallocating when it is too
// short; buf must be all zero already.
func zeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Candidates retrieves the shortlist for a probe: the fanout
// highest-scoring templates (Options.Fanout when fanout <= 0), ordered
// by descending score with deterministic ID tie-breaks. Safe for
// concurrent use with other lookups and with mutation: the shortlist is
// the one the index held at one instant during the call. A nil or tiny
// probe returns no candidates.
func (ix *Index) Candidates(probe *minutiae.Template, fanout int) []Candidate {
	if probe == nil {
		return nil
	}
	if fanout <= 0 {
		fanout = ix.opt.Fanout
	}
	return ix.CandidatesAppend(make([]Candidate, 0, fanout), probe, fanout)
}

// CandidatesAppend is Candidates appending into dst, so hot loops that
// reuse a caller-owned buffer accumulate votes with zero steady-state
// allocations: the dense accumulators and the probe key scratch come
// from the shared pool, and dst grows only when its capacity is short.
//
//fpvet:hotpath
func (ix *Index) CandidatesAppend(dst []Candidate, probe *minutiae.Template, fanout int) []Candidate {
	if probe == nil {
		return dst
	}
	if fanout <= 0 {
		fanout = ix.opt.Fanout
	}
	vs := votePool.Get().(*voteScratch)
	keys := vs.extract(probe.Minutiae, true)
	spans := vs.spans[:0]
	start := len(dst)

	// Under the read lock: fix every probe key's weight from the live
	// bucket sizes and score the delta. Weights, the delta's scores and
	// the removal count all belong to this one instant, which is the
	// state the shortlist reports.
	ix.mu.RLock()
	base, d := ix.base, &ix.delta
	removed := base.removed
	dscores := zeroed(vs.delta, len(d.ids))
	for _, key := range keys {
		s, ok := ix.tab.find(key)
		if !ok {
			continue
		}
		sl := &ix.slots[s]
		if sl.live == 0 || sl.live > maxBucket {
			continue
		}
		w := 1 / float64(sl.live)
		if sl.hi > sl.lo {
			spans = append(spans, span{lo: sl.lo, hi: sl.hi, w: w})
		}
		for _, ref := range sl.delta {
			dscores[ref] += w
		}
	}
	for ref, score := range dscores {
		if score > 0 {
			dscores[ref] = 0
			dst = keepBest(dst, start, fanout, d.ids[ref], score)
		}
	}
	ix.mu.RUnlock()
	vs.delta = dscores

	// No lock: the base's postings never change. Each ref's additions
	// happen in probe-key order, so its sum does not depend on how the
	// buckets are laid out or on which segment holds the template.
	scores := zeroed(vs.scores, len(base.ids))
	for _, sp := range spans {
		w := sp.w
		for _, ref := range base.refs[sp.lo:sp.hi] {
			scores[ref] += w
		}
	}
	for ref, score := range scores {
		if score == 0 {
			continue
		}
		scores[ref] = 0
		// Templates removed before the weights were taken are dead;
		// one removed since still counts, as its postings did.
		if g := base.gone[ref].Load(); g != 0 && g <= removed {
			continue
		}
		dst = keepBest(dst, start, fanout, base.ids[ref], score)
	}
	vs.spans, vs.scores = spans[:0], scores
	votePool.Put(vs)
	slices.SortFunc(dst[start:], compareCandidates)
	return dst
}

// keepBest offers (id, score) to the bounded selection held in
// dst[start:]: a heap of at most fanout candidates with the worst at
// its root, so the fanout best survive without sorting everything hit.
//
//fpvet:hotpath
func keepBest(dst []Candidate, start, fanout int, id string, score float64) []Candidate {
	heap := dst[start:]
	c := Candidate{ID: id, Score: score}
	if len(heap) < fanout {
		dst = append(dst, c)
		heap = dst[start:]
		i := len(heap) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if compareCandidates(heap[i], heap[parent]) <= 0 {
				break
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
		return dst
	}
	if score < heap[0].Score || compareCandidates(c, heap[0]) >= 0 {
		return dst
	}
	i := 0
	for {
		worst := 2*i + 1
		if worst >= len(heap) {
			break
		}
		if r := worst + 1; r < len(heap) && compareCandidates(heap[r], heap[worst]) > 0 {
			worst = r
		}
		if compareCandidates(heap[worst], c) <= 0 {
			break
		}
		heap[i] = heap[worst]
		i = worst
	}
	heap[i] = c
	return dst
}

// compareCandidates orders by descending score with deterministic ID
// tie-breaks — the shortlist order Candidates has always produced.
//
//fpvet:hotpath
func compareCandidates(a, b Candidate) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	if a.ID < b.ID {
		return -1
	}
	if a.ID > b.ID {
		return 1
	}
	return 0
}

// Stats summarizes index occupancy (for logging and benchmarks).
type Stats struct {
	// Templates is the number of indexed templates.
	Templates int
	// DistinctKeys is the number of occupied hash buckets.
	DistinctKeys int
	// Postings is the number of live (key, template) pairs.
	Postings int
}

// Stats returns current occupancy.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return Stats{
		Templates:    len(ix.loc),
		DistinctKeys: ix.distinct,
		Postings:     ix.postings,
	}
}
