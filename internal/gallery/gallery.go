// Package gallery implements the enrollment database of a fingerprint
// identification system: a concurrent-safe template store with 1:1
// verification and 1:N identification, plus the rank-based accuracy
// analysis (CMC) used to evaluate identification across heterogeneous
// sensors. The paper's motivating deployment — US-VISIT — is exactly
// this: a central gallery enrolled on one device family, searched with
// probes from whatever device a port of entry operates.
package gallery

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"fpinterop/internal/index"
	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/par"
)

var (
	// ErrNotFound reports an unknown enrollment ID.
	ErrNotFound = errors.New("gallery: enrollment not found")
	// ErrDuplicate reports an already-used enrollment ID.
	ErrDuplicate = errors.New("gallery: enrollment ID already exists")
)

// Entry is one enrolled subject record.
type Entry struct {
	// ID is the enrollment identifier (e.g. a subject or visa number).
	ID string
	// DeviceID records which sensor produced the enrollment template.
	DeviceID string

	// prep is the enrolled template's one stored form: its preparation
	// for the Hough matcher's hot path (points + spatial grid), built
	// once at enroll time so every probe against this enrollment skips
	// the rebuild, and a lossless copy from which prep.Template rebuilds
	// the template on the rare paths that need it.
	prep *match.Prepared
}

// Store is a concurrent-safe in-memory enrollment database.
// The zero value is NOT ready; use New.
type Store struct {
	mu      sync.RWMutex
	matcher match.Matcher
	// hough is set when matcher is the primary HoughMatcher: the store
	// then scans with pooled zero-allocation match sessions. Otherwise
	// each comparison rebuilds its entry's template.
	hough   bool
	entries map[string]*Entry
	order   []string // insertion order for deterministic iteration

	// idx, when non-nil, serves Identify from a triplet-index shortlist
	// instead of an exhaustive scan (see EnableIndex).
	idx           *index.Index
	minCandidates int

	// met is non-nil after SetMetrics; record methods are nil-safe, so
	// unmetered stores pay one branch per touch point.
	met *storeMetrics
}

// New returns an empty store that searches with the given matcher.
// A nil matcher defaults to the primary HoughMatcher.
func New(m match.Matcher) *Store {
	if m == nil {
		m = &match.HoughMatcher{}
	}
	_, hough := m.(*match.HoughMatcher)
	return &Store{matcher: m, hough: hough, entries: make(map[string]*Entry)}
}

// Enroll adds a template under id. The store keeps its preparation, a
// copy, so later mutation by the caller cannot corrupt the gallery. It
// is derive then insert on the calling goroutine: searches wait for the
// insert (a map write and the index add), never for the derivation.
func (s *Store) Enroll(id, deviceID string, tpl *minutiae.Template) error {
	it := Export{ID: id, DeviceID: deviceID, Template: tpl}
	if err := it.validate(); err != nil {
		return err
	}
	s.mu.RLock()
	_, dup := s.entries[id]
	indexed := s.idx != nil
	s.mu.RUnlock()
	if dup {
		// Fails before paying for the derivation; insert's check under
		// the write lock is the one that decides.
		return fmt.Errorf("enroll %q: %w", id, ErrDuplicate)
	}
	return s.insert(s.derive(it, indexed))
}

// validate is the part of an enrollment's check that needs no store.
func (it Export) validate() error {
	if it.Template == nil {
		return fmt.Errorf("gallery: enroll %q: nil template", it.ID)
	}
	if err := it.Template.Validate(); err != nil {
		return fmt.Errorf("gallery: enroll %q: %w", it.ID, err)
	}
	return nil
}

// derived is everything an enrollment needs that depends on its
// template alone — the matcher's preparation, the index keys — so it is
// computed with no lock held and on any goroutine.
type derived struct {
	entry *Entry
	// keys are the index keys, from keyBufs; nil when the store had no
	// index at derive time.
	keys *[]uint64
}

// keyBufs recycles index key lists: the index keeps neither a template
// nor its keys, so a list is spent once its add or removal is done.
var keyBufs = sync.Pool{New: func() any { return new([]uint64) }}

// appendKeys is index.AppendKeys; tests swap it to check that no caller
// holds Store.mu while it runs.
var appendKeys = index.AppendKeys

// acquireKeys derives tpl's index keys into a keyBufs list.
func acquireKeys(tpl *minutiae.Template) *[]uint64 {
	buf := keyBufs.Get().(*[]uint64)
	*buf = appendKeys((*buf)[:0], tpl)
	return buf
}

// scratchTemplates recycles the templates the rare paths rebuild from
// a preparation only to read them.
var scratchTemplates = sync.Pool{New: func() any { return new(minutiae.Template) }}

// acquireEntryKeys derives the index keys of e's template, rebuilt into
// a pooled scratch.
func acquireEntryKeys(e *Entry) *[]uint64 {
	tpl := scratchTemplates.Get().(*minutiae.Template)
	e.prep.TemplateInto(tpl)
	keys := acquireKeys(tpl)
	scratchTemplates.Put(tpl)
	return keys
}

// prepare builds the stored form of a validated template: the
// HoughMatcher's preparation, whatever matcher the store searches with.
func prepare(tpl *minutiae.Template) *match.Prepared {
	return (&match.HoughMatcher{}).Prepare(tpl)
}

// derive computes a validated item's derived form. The preparation
// copies the caller's template; nothing else of it is kept.
func (s *Store) derive(it Export, indexed bool) derived {
	d := derived{entry: &Entry{ID: it.ID, DeviceID: it.DeviceID, prep: prepare(it.Template)}}
	if indexed {
		d.keys = acquireKeys(it.Template)
	}
	return d
}

// insert makes a derived enrollment visible: the duplicate check, the
// index add and the map write, under one hold of the write lock (two
// when an index was enabled since the derivation: the keys are derived
// between them).
func (s *Store) insert(d derived) error {
	e := d.entry
	s.mu.Lock()
	if s.idx != nil && d.keys == nil {
		s.mu.Unlock()
		d.keys = acquireEntryKeys(e)
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	if d.keys != nil {
		defer keyBufs.Put(d.keys)
	}
	if _, ok := s.entries[e.ID]; ok {
		return fmt.Errorf("enroll %q: %w", e.ID, ErrDuplicate)
	}
	if s.idx != nil {
		if err := s.idx.AddKeys(e.ID, *d.keys); err != nil {
			return fmt.Errorf("gallery: enroll %q: %w", e.ID, err)
		}
	}
	s.entries[e.ID] = e
	s.order = append(s.order, e.ID)
	s.met.setEnrollments(len(s.entries))
	return nil
}

// BatchError is the error of a failed EnrollBatch: Err is what enrolling
// items[Applied] returned, and items[:Applied] are enrolled.
type BatchError struct {
	Applied int
	Err     error
}

// Error is the failing item's error, unchanged.
func (e *BatchError) Error() string { return e.Err.Error() }

// Unwrap lets errors.Is find the item's sentinel (ErrDuplicate).
func (e *BatchError) Unwrap() error { return e.Err }

// EnrollBatch enrolls the items in order. Not atomic: on failure (a
// *BatchError) the items before the failing one stay enrolled (a
// WAL-backed store's EnrollBatch is the atomic, single-fsync version).
// Above one CPU, items are derived on par.Ordered's workers while the
// calling goroutine inserts each as soon as it and all before it are
// ready, one write-lock hold per item as in Enroll, so the stored result
// does not depend on the worker count. A derive worker never waits for
// the inserts (its queue holds all of its items), so an index merge
// under the write lock does not idle it.
func (s *Store) EnrollBatch(items []Export) error {
	if par.Workers(len(items)) == 1 {
		for i, it := range items {
			if err := s.Enroll(it.ID, it.DeviceID, it.Template); err != nil {
				return &BatchError{Applied: i, Err: err}
			}
		}
		return nil
	}
	s.mu.RLock()
	indexed := s.idx != nil
	s.mu.RUnlock()
	return par.Ordered(len(items), len(items), func(i int) (derived, error) {
		if err := items[i].validate(); err != nil {
			return derived{}, &BatchError{Applied: i, Err: err}
		}
		return s.derive(items[i], indexed), nil
	}, func(i int, d derived) error {
		if err := s.insert(d); err != nil {
			return &BatchError{Applied: i, Err: err}
		}
		return nil
	})
}

// Get returns the enrollment stored under id, its template rebuilt
// from the stored preparation: equal to the one enrolled, bit for bit,
// and the caller's own.
func (s *Store) Get(id string) (Export, bool) {
	s.mu.RLock()
	e, ok := s.entries[id]
	s.mu.RUnlock()
	if !ok {
		return Export{}, false
	}
	return Export{ID: e.ID, DeviceID: e.DeviceID, Template: e.prep.Template()}, true
}

// Export is one enrollment lifted out of the store: the bulk-transfer
// unit shared by persistence (ReadEntries/ReplaceAll), WAL recovery
// and batch enrollment. A store reads an Export's template only during
// the call it is passed to and keeps a copy; one it hands out (Get) is
// rebuilt for the caller.
type Export struct {
	ID       string
	DeviceID string
	Template *minutiae.Template
}

// Remove deletes an enrollment. Its index keys are derived from the
// template rebuilt from its preparation, with no lock held.
func (s *Store) Remove(id string) error {
	for {
		s.mu.RLock()
		e, ok := s.entries[id]
		indexed := s.idx != nil
		s.mu.RUnlock()
		if !ok {
			return fmt.Errorf("remove %q: %w", id, ErrNotFound)
		}
		var keys *[]uint64
		if indexed {
			keys = acquireEntryKeys(e)
		}
		done, err := s.remove(e, keys)
		if keys != nil {
			keyBufs.Put(keys)
		}
		if done {
			return err
		}
	}
}

// remove deletes e, given its index keys when the store had an index.
// It reports false, changing nothing, when e is no longer the entry
// under its ID or an index was enabled since the keys were due: the
// caller looks again.
func (s *Store) remove(e *Entry, keys *[]uint64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := e.ID
	if s.entries[id] != e || (s.idx != nil && keys == nil) {
		return false, nil
	}
	if s.idx != nil {
		// The index holds exactly the enrolled set; a miss here would
		// mean they diverged, which Remove must not hide. It is checked
		// before mutating entries/order so a failure leaves the store
		// untouched.
		if err := s.idx.RemoveKeys(id, *keys); err != nil {
			return true, fmt.Errorf("gallery: remove %q from index: %w", id, err)
		}
	}
	delete(s.entries, id)
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.met.setEnrollments(len(s.entries))
	return true, nil
}

// Len returns the number of enrollments.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// VerifyContext performs a 1:1 comparison of the probe against one
// enrollment; a cancelled or expired context fails fast with ctx.Err()
// before the comparison runs.
func (s *Store) VerifyContext(ctx context.Context, id string, probe *minutiae.Template) (match.Result, error) {
	if err := ctx.Err(); err != nil {
		return match.Result{}, err
	}
	s.mu.RLock()
	e, ok := s.entries[id]
	s.mu.RUnlock()
	if !ok {
		return match.Result{}, fmt.Errorf("verify %q: %w", id, ErrNotFound)
	}
	if s.hough {
		return match.MatchPreparedOnce(e.prep, probe)
	}
	return s.matcher.Match(e.prep.Template(), probe)
}

// Candidate is one identification hit.
type Candidate struct {
	ID       string
	DeviceID string
	Score    float64
}

// shortlistPool recycles the index shortlist buffer of an identify.
var shortlistPool = sync.Pool{New: func() any { return new([]index.Candidate) }}

// IndexOptions configures indexed candidate retrieval on a Store.
type IndexOptions struct {
	// Index tunes the triplet index (zero value for defaults).
	Index index.Options
	// MinCandidates is the recall guard: when the index shortlist holds
	// fewer candidates than this (or than the requested top-k), Identify
	// falls back to the exhaustive scan rather than risk missing the
	// mate (default 8).
	MinCandidates int
}

// EnableIndex attaches a minutia-triplet retrieval index, building it
// from the current enrollments; subsequent Enroll/Remove calls keep it
// incrementally up to date, and ReplaceAll rebuilds it. While enabled,
// identification with k > 0 searches only the index shortlist unless the
// recall guard trips.
func (s *Store) EnableIndex(opt IndexOptions) error {
	if opt.MinCandidates <= 0 {
		opt.MinCandidates = 8
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, err := buildIndex(opt.Index, s.order, s.entries)
	if err != nil {
		return err
	}
	s.idx = idx
	s.minCandidates = opt.MinCandidates
	return nil
}

// buildIndex bulk-builds a retrieval index over entries, in order, each
// template rebuilt into a scratch only for its keys.
func buildIndex(opt index.Options, order []string, entries map[string]*Entry) (*index.Index, error) {
	idx, err := index.Build(opt, order, func(i int) []uint64 {
		tpl := scratchTemplates.Get().(*minutiae.Template)
		entries[order[i]].prep.TemplateInto(tpl)
		keys := index.AppendKeys(nil, tpl)
		scratchTemplates.Put(tpl)
		return keys
	})
	if err != nil {
		return nil, fmt.Errorf("gallery: index build: %w", err)
	}
	return idx, nil
}

// IndexStats reports retrieval-index occupancy; ok is false when no
// index is enabled.
func (s *Store) IndexStats() (st index.Stats, ok bool) {
	s.mu.RLock()
	idx := s.idx
	s.mu.RUnlock()
	if idx == nil {
		return index.Stats{}, false
	}
	return idx.Stats(), true
}

// IdentifyStats describes how one identification was served. It is the
// one shape on every serving path: a store fills it for itself, a shard
// router sums its legs into it, and the wire carries it, so a
// caller any number of hops away sees the coverage of the stores that
// actually searched.
type IdentifyStats struct {
	// GallerySize is the number of enrollments at search time (summed
	// over the stores that answered).
	GallerySize int
	// Shortlist is how many candidates the index retrieved for this
	// search: 0 when no shortlist was attempted (index disabled or a
	// full ranking requested), and possibly non-zero even when Indexed
	// is false — a shortlist the recall guard rejected. Use Indexed,
	// not Shortlist, to tell which path served the query.
	Shortlist int
	// Scanned is how many full matcher comparisons ran.
	Scanned int
	// Indexed reports whether the shortlist path served the query (on
	// a sharded search: on every store that answered).
	Indexed bool
	// ShardsQueried, ShardsSkipped and ShardsFailed count the stores
	// the search was sent to, the degraded ones it went around, and the
	// queried ones that failed; a store reports 1/0/0.
	ShardsQueried int
	ShardsSkipped int
	ShardsFailed  int
	// Partial reports incomplete coverage: a store was skipped or
	// failed, so a mate enrolled there could be missing from the
	// candidates.
	Partial bool
}

// IdentifyContext searches the probe against the gallery and returns
// the top-k candidates by score (every negative or zero k requests the
// full ranking), ordered by descending score with deterministic ID
// tie-breaks. k larger than the gallery is clamped to the gallery size;
// an empty store yields an empty (non-nil) candidate list. With an
// index enabled and k > 0, only the retrieval shortlist is scored by
// the full matcher; pass k <= 0 (or disable the index) for an
// exhaustive ranking. Cancellation behaves as in
// IdentifyDetailedContext.
func (s *Store) IdentifyContext(ctx context.Context, probe *minutiae.Template, k int) ([]Candidate, error) {
	out, _, err := s.IdentifyDetailedContext(ctx, probe, k)
	return out, err
}

// IdentifyDetailedContext is IdentifyContext plus retrieval statistics.
// The exhaustive scan polls the context between matcher comparisons, so
// a cancelled or expired context unblocks an in-flight search within
// one comparison's latency and returns ctx.Err().
func (s *Store) IdentifyDetailedContext(ctx context.Context, probe *minutiae.Template, k int) ([]Candidate, IdentifyStats, error) {
	if probe == nil {
		return nil, IdentifyStats{}, match.ErrNilTemplate
	}
	if err := ctx.Err(); err != nil {
		return nil, IdentifyStats{}, err
	}
	if k < 0 {
		// Every degenerate k means the same thing — a full ranking — so
		// local, sharded, and remote searches agree on the wire (where k
		// travels unsigned) and in the merge math.
		k = 0
	}
	s.mu.RLock()
	idx := s.idx
	minCand := s.minCandidates
	size := len(s.order)
	met := s.met
	s.mu.RUnlock()

	if k > size {
		// Asking for more candidates than enrollments is a full ranking;
		// clamping here keeps the indexed path's shortlist-covers-k guard
		// meaningful instead of tripping it on every oversized k.
		k = size
	}
	stats := IdentifyStats{GallerySize: size, ShardsQueried: 1}
	if idx != nil && k > 0 {
		fanout := idx.Options().Fanout
		if k > fanout {
			fanout = k
		}
		if entries, ok := s.shortlistEntries(idx, probe, fanout, max(minCand, k), &stats); ok {
			out, err := s.scoreEntries(ctx, entries, probe)
			if err != nil {
				return nil, stats, err
			}
			stats.Scanned = len(entries)
			stats.Indexed = true
			if k < len(out) {
				out = out[:k]
			}
			met.recordIdentify(stats, true, false)
			return out, stats, nil
		}
		// Recall guard tripped: too few candidates retrieved to trust
		// the shortlist — fall through to the exhaustive scan.
	}

	s.mu.RLock()
	entries := make([]*Entry, len(s.order))
	for i, id := range s.order {
		entries[i] = s.entries[id]
	}
	stats.GallerySize = len(entries)
	s.mu.RUnlock()
	out, err := s.scoreEntries(ctx, entries, probe)
	if err != nil {
		return nil, stats, err
	}
	stats.Scanned = len(entries)
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	met.recordIdentify(stats, idx != nil && k > 0, idx != nil && k > 0)
	return out, stats, nil
}

// shortlistEntries retrieves the index shortlist for probe and resolves
// it to enrolled entries, recording its size and the gallery size in
// stats; ok is false when it holds fewer than need candidates, the
// recall guard. The shortlist itself lives in a pooled buffer and does
// not outlive the call.
func (s *Store) shortlistEntries(idx *index.Index, probe *minutiae.Template, fanout, need int, stats *IdentifyStats) (entries []*Entry, ok bool) {
	buf := shortlistPool.Get().(*[]index.Candidate)
	shortlist := idx.CandidatesAppend((*buf)[:0], probe, fanout)
	stats.Shortlist = len(shortlist)
	if ok = len(shortlist) >= need; ok {
		entries = make([]*Entry, 0, len(shortlist))
		s.mu.RLock()
		for _, c := range shortlist {
			// An entry may have been removed between the index
			// lookup and this snapshot; skip it.
			if e, ok := s.entries[c.ID]; ok {
				entries = append(entries, e)
			}
		}
		stats.GallerySize = len(s.order)
		s.mu.RUnlock()
	}
	*buf = shortlist[:0]
	shortlistPool.Put(buf)
	return entries, ok
}

// scoreEntries runs the full matcher for the probe against every entry
// across a bounded worker pool and returns candidates ordered by
// descending score with ID tie-breaks. Workers write only their own
// result slot, so the output is deterministic regardless of scheduling;
// on matcher failure the error from the lowest entry index wins.
func (s *Store) scoreEntries(ctx context.Context, entries []*Entry, probe *minutiae.Template) ([]Candidate, error) {
	scores, err := s.matchAll(ctx, entries, probe)
	if err != nil {
		return nil, err
	}
	out := make([]Candidate, len(entries))
	for i, e := range entries {
		out[i] = Candidate{ID: e.ID, DeviceID: e.DeviceID, Score: scores[i]}
	}
	slices.SortFunc(out, func(a, b Candidate) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	return out, nil
}

// matchAll computes the matcher score of the probe against every entry
// on par.For's workers. Each worker holds one pooled match session for
// the whole scan with the probe bound to it once, so a comparison runs
// with zero steady-state allocations against the preparation cached at
// enroll time; under a custom matcher each worker rebuilds every
// entry's template into one scratch instead. Workers stop claiming
// entries once ctx is done: a cancelled context stops the scan within
// one matcher call's latency and matchAll returns ctx.Err(), which
// outranks any matcher error (a half-cancelled scan's failures are not
// meaningful); otherwise the error from the lowest entry index wins.
func (s *Store) matchAll(ctx context.Context, entries []*Entry, probe *minutiae.Template) ([]float64, error) {
	scores := make([]float64, len(entries))
	workers := par.Workers(len(entries))
	var (
		sessions []*match.Session
		rebuilt  []minutiae.Template
	)
	if s.hough {
		sessions = make([]*match.Session, workers)
		for w := range sessions {
			sess := match.AcquireSession()
			defer sess.Release()
			sess.Bind(probe)
			sessions[w] = sess
		}
	} else {
		rebuilt = make([]minutiae.Template, workers)
	}
	err := par.For(ctx.Done(), len(entries), func(w, i int) error {
		e := entries[i]
		var (
			res match.Result
			err error
		)
		if sessions != nil {
			res, err = sessions[w].MatchBound(e.prep)
		} else {
			e.prep.TemplateInto(&rebuilt[w])
			res, err = s.matcher.Match(&rebuilt[w], probe)
		}
		if err != nil {
			return fmt.Errorf("identify against %q: %w", e.ID, err)
		}
		scores[i] = res.Score
		return nil
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// RankContext returns the 1-based rank at which trueID appears in a
// full (exhaustive) identification of the probe, or 0 when it is not
// enrolled. The rank is computed in one pass — count the enrollments
// scoring strictly better, with the ID tie-break — without sorting the
// candidate list; cancellation unblocks the scan within one
// comparison's latency.
func (s *Store) RankContext(ctx context.Context, probe *minutiae.Template, trueID string) (int, error) {
	if probe == nil {
		return 0, match.ErrNilTemplate
	}
	s.mu.RLock()
	if _, ok := s.entries[trueID]; !ok {
		s.mu.RUnlock()
		return 0, nil
	}
	entries := make([]*Entry, len(s.order))
	trueIdx := -1
	for i, id := range s.order {
		entries[i] = s.entries[id]
		if id == trueID {
			trueIdx = i
		}
	}
	s.mu.RUnlock()
	scores, err := s.matchAll(ctx, entries, probe)
	if err != nil {
		return 0, err
	}
	trueScore := scores[trueIdx]
	rank := 1
	for i, sc := range scores {
		if sc > trueScore || (sc == trueScore && entries[i].ID < trueID) {
			rank++
		}
	}
	return rank, nil
}

// CMC is a cumulative match characteristic: CMC[k-1] is the fraction of
// probes whose true identity appeared at rank ≤ k.
type CMC []float64

// ComputeCMCContext runs identification for every (probe, trueID) pair
// and accumulates the rank histogram up to maxRank. The context is
// checked on every probe, so cancellation stops a sweep within one
// identification's latency.
func ComputeCMCContext(ctx context.Context, s *Store, probes []*minutiae.Template, trueIDs []string, maxRank int) (CMC, error) {
	if len(probes) != len(trueIDs) {
		return nil, fmt.Errorf("gallery: %d probes vs %d labels", len(probes), len(trueIDs))
	}
	if maxRank <= 0 {
		return nil, fmt.Errorf("gallery: maxRank must be positive")
	}
	if len(probes) == 0 {
		return nil, fmt.Errorf("gallery: no probes")
	}
	hits := make([]int, maxRank)
	for i, probe := range probes {
		rank, err := s.RankContext(ctx, probe, trueIDs[i])
		if err != nil {
			return nil, err
		}
		if rank >= 1 && rank <= maxRank {
			hits[rank-1]++
		}
	}
	out := make(CMC, maxRank)
	cum := 0
	for k := 0; k < maxRank; k++ {
		cum += hits[k]
		out[k] = float64(cum) / float64(len(probes))
	}
	return out, nil
}

// RankOne returns the rank-1 identification rate.
func (c CMC) RankOne() float64 {
	if len(c) == 0 {
		return 0
	}
	return c[0]
}
