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
	"slices"
	"sync"
	"sync/atomic"

	"fpinterop/internal/minutiae"
	"fpinterop/internal/par"
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
// one key table whose slots carry, per key, a live count — how many
// templates, base or delta, hold the key now — and where its delta
// postings are. The base is cut into blocks of up to 65,536 templates,
// each holding 16-bit block-local refs and, per key, its bucket's span.
// Add writes the delta; Remove deletes from the delta or tombstones the
// base; both keep the live counts exact, so a bucket's weight is always
// 1/(templates currently holding the key), what an index built from
// scratch over the live set computes. Once the postings added or
// tombstoned since the last merge pass an eighth of the base, the
// mutation that crossed the line folds both into a new base. A vote
// takes its weights and scores the delta under the read lock, then
// streams the base's postings block by block with no lock held.
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

// delta holds the templates added since the last merge. Refs are local
// to it and reusable at once: votes read it only under Index.mu.
type delta struct {
	// ids maps a delta ref to its template ID ("" = free), members to
	// the template; free lists reusable refs.
	ids     []string
	members []member
	free    []uint32
	// lists holds, for each key a delta template was added under, the
	// delta refs holding it; slot.delta points here.
	lists [][]uint32
}

// list returns the delta refs holding sl's key.
func (d *delta) list(sl slot) []uint32 {
	if sl.delta == 0 {
		return nil
	}
	return d.lists[sl.delta-1]
}

// New returns an empty index with the given options (zero value for
// defaults).
func New(opt Options) *Index {
	if opt.Fanout <= 0 {
		opt.Fanout = 64
	}
	return &Index{opt: opt, base: emptySegment, loc: make(map[string]uint32)}
}

// Build returns an index over len(ids) templates, the i-th under
// ids[i] with keys(dst, i) appending its keys (AppendKeys of the
// template) to dst, equal to Adding them to New(opt) one by one: keys
// runs on par.Ordered's workers, several at once, while the calling
// goroutine adds each template as soon as it and all before it are
// extracted, and the base segment is laid out once, with no merges on
// the way. Each dst is a list the add before it has spent, so a build
// keeps a few key lists, not one per template. The caller keeps the
// templates: the index holds none.
func Build(opt Options, ids []string, keys func(dst []uint64, i int) []uint64) (*Index, error) {
	ix := New(opt)
	// Depth 16 keeps a few key lists live at a time, not n; it is
	// measured in EXPERIMENTS.md, "Replica bootstrap".
	const depth = 16
	// Spent lists go back to the workers through free, which holds as
	// many as can be in flight (each worker's queue, plus the one it
	// fills). A channel rather than a sync.Pool: the lists are garbage
	// once Build returns, not kept for a collection or two.
	free := make(chan *[]uint64, par.Workers(len(ids))*(depth+1))
	err := par.Ordered(len(ids), depth, func(i int) (*[]uint64, error) {
		var buf *[]uint64
		select {
		case buf = <-free:
		default:
			buf = new([]uint64)
		}
		*buf = keys((*buf)[:0], i)
		return buf, nil
	}, func(i int, buf *[]uint64) error {
		err := ix.add(ids[i], *buf)
		select {
		case free <- buf:
		default:
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	ix.merge()
	return ix, nil
}

// Options returns the resolved option set the index runs with.
func (ix *Index) Options() Options { return ix.opt }

var keyPool = sync.Pool{New: func() any { return new(keyScratch) }}

// keysOf extracts tpl's keys into ks for an Add. Tests swap it to
// check that Add does not hold Index.mu while it runs.
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
// keeps neither tpl nor its keys, only their count and checksum.
func (ix *Index) Add(id string, tpl *minutiae.Template) error {
	if tpl == nil {
		return fmt.Errorf("index: add %q: nil template", id)
	}
	ks := keyPool.Get().(*keyScratch)
	err := ix.AddKeys(id, keysOf(ks, tpl))
	keyPool.Put(ks)
	return err
}

// AddKeys is Add with the key extraction already done: keys must be
// AppendKeys(nil, tpl). The index keeps none of keys.
func (ix *Index) AddKeys(id string, keys []uint64) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.add(id, keys); err != nil {
		return err
	}
	ix.maybeMerge()
	return nil
}

// add enrolls id into the delta.
func (ix *Index) add(id string, keys []uint64) error {
	if _, ok := ix.loc[id]; ok {
		return fmt.Errorf("add %q: %w", id, ErrDuplicate)
	}
	d := &ix.delta
	m := member{keys: uint32(len(keys)), sum: keySum(keys)}
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
		if sl.delta == 0 {
			d.lists = append(d.lists, nil)
			sl.delta = uint32(len(d.lists))
		}
		d.lists[sl.delta-1] = append(d.lists[sl.delta-1], ref)
	}
	ix.postings += len(keys)
	ix.churn += len(keys)
	return nil
}

// Remove drops a template from the index. The index keeps neither the
// template nor its keys, so Remove reads the keys off its own postings,
// under the write lock: a scan of the template's base block, or of the
// delta's lists — O(postings), where RemoveKeys is O(keys). Callers
// that hold the template use AppendKeys and RemoveKeys, as a gallery
// does.
func (ix *Index) Remove(id string) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ref, ok := ix.loc[id]
	if !ok {
		return fmt.Errorf("remove %q: %w", id, ErrNotFound)
	}
	return ix.remove(id, ref, ix.heldKeys(ref))
}

// heldKeys returns the keys the template at ref holds: every live key
// whose delta list (a delta ref) or bucket in the template's block (a
// base ref) lists it. Callers hold Index.mu.
func (ix *Index) heldKeys(ref uint32) []uint64 {
	local := ref &^ deltaRef
	var keys []uint64
	for _, c := range ix.tab.cells {
		if c.key == 0 || ix.slots[c.slot].live == 0 {
			continue
		}
		var held bool
		if ref&deltaRef != 0 {
			held = slices.Contains(ix.delta.list(ix.slots[c.slot]), local)
		} else if int(c.slot) < ix.base.keys {
			held = slices.Contains(ix.base.bucket(int(ref>>blockShift), c.slot), uint16(ref&(1<<blockShift-1)))
		}
		if held {
			keys = append(keys, c.key-1)
		}
	}
	return keys
}

// member returns what the index keeps of the template a ref names.
// Callers hold Index.mu.
func (ix *Index) member(ref uint32) *member {
	if ref&deltaRef != 0 {
		return &ix.delta.members[ref&^deltaRef]
	}
	return &ix.base.members[ref]
}

// RemoveKeys is Remove with the keys supplied: they must be
// AppendKeys(nil, tpl) of the template id was added with, in any order.
// It fails, changing nothing, when they are not the keys the template
// was added under — their count or checksum differs, or the index does
// not hold one of them for it.
func (ix *Index) RemoveKeys(id string, keys []uint64) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ref, ok := ix.loc[id]
	if !ok {
		return fmt.Errorf("remove %q: %w", id, ErrNotFound)
	}
	return ix.remove(id, ref, keys)
}

// remove drops id, at ref, given its keys. Callers hold Index.mu.
func (ix *Index) remove(id string, ref uint32, keys []uint64) error {
	m := ix.member(ref)
	if int(m.keys) != len(keys) || m.sum != keySum(keys) || !ix.holds(ref, keys) {
		return fmt.Errorf("index: remove %q: not the keys it was added under (%d keys now, %d then)", id, len(keys), m.keys)
	}
	delete(ix.loc, id)
	*m = member{}
	ix.postings -= len(keys)
	if ref&deltaRef != 0 {
		ref &^= deltaRef
		d := &ix.delta
		for _, key := range keys {
			l := &d.lists[ix.release(key).delta-1]
			i := slices.Index(*l, ref)
			(*l)[i] = (*l)[len(*l)-1]
			*l = (*l)[:len(*l)-1]
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
// delta ref, lists ref among its postings: what remove needs to undo an
// add without touching another template's counts.
func (ix *Index) holds(ref uint32, keys []uint64) bool {
	for _, key := range keys {
		s, ok := ix.tab.find(key)
		if !ok || ix.slots[s].live == 0 {
			return false
		}
		if ref&deltaRef != 0 && !slices.Contains(ix.delta.list(ix.slots[s]), ref&^deltaRef) {
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
	if ix.churn >= max(ix.base.postings/8, mergeFloor) {
		ix.merge()
	}
}

// merge folds the delta and the base's tombstones into a new base and
// installs it. Callers hold Index.mu for writing.
func (ix *Index) merge() {
	m := ix.mergedSegment()
	for ref, id := range m.seg.ids {
		ix.loc[id] = uint32(ref)
	}
	ix.tab, ix.slots, ix.base, ix.delta = m.tab, m.slots, m.seg, delta{}
	ix.churn = 0
}

// merged is a base built by mergedSegment, with the key table that
// indexes its buckets.
type merged struct {
	tab   keyTable
	slots []slot
	seg   *segment
}

// mergedSegment builds the base a merge installs: templates are
// renumbered densely (base survivors in order, then the delta's) and
// cut into blocks of 1<<blockShift, each live key's bucket in a block
// is the base's surviving refs that land there followed by the delta's,
// and keys nobody holds any more are dropped. It writes nothing the
// index holds, so a caller that only reads the result (AppendSegment)
// needs Index.mu for reading alone.
func (ix *Index) mergedSegment() merged {
	old, d := ix.base, &ix.delta
	n := len(ix.loc)
	shift := blockShift
	seg := &segment{
		blocks:   make([]block, (n+1<<shift-1)>>shift),
		keys:     ix.distinct,
		postings: ix.postings,
		ids:      make([]string, 0, n),
		members:  make([]member, 0, n),
		gone:     make([]atomic.Uint32, n),
	}
	keep := func(id string, m member) uint32 {
		ref := uint32(len(seg.ids))
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
	// A block holds its templates' postings, one per key each; refs
	// are appended within that capacity.
	size := make([]uint32, len(seg.blocks))
	for ref, m := range seg.members {
		size[ref>>shift] += m.keys
	}
	blocks := seg.blocks
	for b := range blocks {
		blocks[b] = block{refs: make([]uint16, 0, size[b]), off: make([]uint32, ix.distinct+1)}
	}
	mask := uint32(1)<<shift - 1
	put := func(ref uint32) {
		blk := &blocks[ref>>shift]
		blk.refs = append(blk.refs, uint16(ref&mask))
	}

	tab := newKeyTable(ix.distinct)
	slots := make([]slot, 0, ix.distinct)
	for _, c := range ix.tab.cells {
		if c.key == 0 {
			continue
		}
		sl := ix.slots[c.slot]
		if sl.live == 0 {
			continue
		}
		if int(c.slot) < old.keys {
			for b := range old.blocks {
				first := uint32(b) << shift
				for _, r := range old.bucket(b, c.slot) {
					if nr := baseRemap[first|uint32(r)]; nr != deadRef {
						put(nr)
					}
				}
			}
		}
		for _, ref := range d.list(sl) {
			put(deltaRemap[ref])
		}
		tab.findOrAdd(c.key - 1)
		slots = append(slots, slot{live: sl.live})
		for b := range blocks {
			blocks[b].off[len(slots)] = uint32(len(blocks[b].refs))
		}
	}
	return merged{tab: tab, slots: slots, seg: seg}
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

// span is one key whose base buckets a vote streams, with its weight;
// lo:hi bounds its bucket in the block being streamed.
type span struct {
	slot, lo, hi uint32
	w            float64
}

// deltaHit is one key whose delta list a vote scores, with its weight.
type deltaHit struct {
	list uint32
	w    float64
}

// voteScratch recycles what one lookup needs. The dense accumulators
// are sized by the gallery (the delta, and a base block of up to 65,536
// refs), not the probe — without pooling a 50k-template index
// allocates (and zeroes) ~400 KiB per identification — and are all
// zero whenever the scratch sits in the pool.
type voteScratch struct {
	keyScratch
	spans  []span
	hits   []deltaHit
	scores []float64 // per ref of one base block
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
	keys := vs.extract(probe.Minutiae, probeKeys)
	spans, hits := vs.spans[:0], vs.hits[:0]
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
		if int(s) < base.keys {
			spans = append(spans, span{slot: s, w: w})
		}
		if sl.delta != 0 {
			hits = append(hits, deltaHit{list: sl.delta - 1, w: w})
		}
	}
	// The lists are read in a second pass, so the loads that find them
	// overlap with each other instead of waiting on the table lookups.
	for _, h := range hits {
		for _, ref := range d.lists[h.list] {
			dscores[ref] += h.w
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

	// No lock: the base's postings never change. It is streamed one
	// block at a time, and each ref's additions happen in probe-key
	// order, so its sum does not depend on how the buckets are laid out,
	// how many blocks there are or which segment holds the template.
	for b := range base.blocks {
		blk := &base.blocks[b]
		first := b << blockShift
		scores := zeroed(vs.scores, min(len(base.ids)-first, 1<<blockShift))
		// Bound every bucket first: independent loads the CPU overlaps,
		// where the stream would wait for each in turn.
		for i := range spans {
			sp := &spans[i]
			sp.lo, sp.hi = blk.off[sp.slot], blk.off[sp.slot+1]
		}
		for _, sp := range spans {
			w := sp.w
			for _, r := range blk.refs[sp.lo:sp.hi] {
				scores[r] += w
			}
		}
		for r, score := range scores {
			if score == 0 {
				continue
			}
			scores[r] = 0
			// Templates removed before the weights were taken are
			// dead; one removed since still counts, as its postings
			// did.
			ref := first + r
			if g := base.gone[ref].Load(); g != 0 && g <= removed {
				continue
			}
			dst = keepBest(dst, start, fanout, base.ids[ref], score)
		}
		vs.scores = scores
	}
	vs.spans, vs.hits = spans[:0], hits[:0]
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
