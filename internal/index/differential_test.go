package index

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
)

// sameShortlist reports whether two shortlists agree in IDs, order and
// score bits.
func sameShortlist(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// requireEqualsReference holds ix to the reference: equal Stats and,
// for every probe, an identical shortlist at the default and at a
// small fanout.
func requireEqualsReference(t *testing.T, when string, ix *Index, ref *referenceIndex, probes []*minutiae.Template) {
	t.Helper()
	if got, want := ix.Stats(), ref.stats(); got != want {
		t.Fatalf("%s: Stats = %+v, reference %+v", when, got, want)
	}
	for pi, probe := range probes {
		for _, fanout := range []int{ix.Options().Fanout, 5} {
			got, want := ix.Candidates(probe, fanout), ref.candidates(probe, fanout)
			if !sameShortlist(got, want) {
				t.Fatalf("%s: probe %d fanout %d:\n got %+v\nwant %+v", when, pi, fanout, got, want)
			}
		}
	}
}

// setBlockShift cuts the bases that the rest of the test merges into
// blocks of 1<<shift templates. It must run before the test builds any
// index: the index reads every base with the current shift.
func setBlockShift(t *testing.T, shift uint) {
	saved := blockShift
	blockShift = shift
	t.Cleanup(func() { blockShift = saved })
}

// blockTrace records what a history did to an index's base blocks.
type blockTrace struct {
	// blocks is the most blocks a base had, resizes the merges from a
	// non-empty base that changed the block count, and tombstoned the
	// most blocks holding a removed template at once.
	blocks, resizes, tombstoned int
}

// observe records ix after one operation; before is its base before it.
func (bt *blockTrace) observe(ix *Index, before *segment) {
	seg := ix.base
	bt.blocks = max(bt.blocks, len(seg.blocks))
	if seg != before && len(before.blocks) > 0 && len(seg.blocks) != len(before.blocks) {
		bt.resizes++
	}
	n := 0
	for b := range seg.blocks {
		first := b << blockShift
		for ref := first; ref < min(first+1<<blockShift, len(seg.gone)); ref++ {
			if seg.gone[ref].Load() != 0 {
				n++
				break
			}
		}
	}
	bt.tombstoned = max(bt.tombstoned, n)
}

// requireMultiBlock fails the test unless the history reached three
// blocks, changed the block count in a merge and held tombstones in
// two blocks at once.
func (bt blockTrace) requireMultiBlock(t *testing.T) {
	t.Helper()
	t.Logf("%d blocks at most, %d resizing merges, tombstones in %d blocks at once", bt.blocks, bt.resizes, bt.tombstoned)
	if bt.blocks < 3 || bt.resizes == 0 || bt.tombstoned < 2 {
		t.Fatalf("history reached %d blocks, resized %d times, tombstoned %d blocks at once; want 3+, 1+, 2+",
			bt.blocks, bt.resizes, bt.tombstoned)
	}
}

// multiBlockShift is the block size the multi-block variants run at:
// 8 templates, so their 12–60-template galleries span 2–8 blocks.
const multiBlockShift = 3

// TestCandidatesEqualReference drives the index and the map-based
// reference through the same seeded random histories of Add, Remove and
// starting over from an empty index, and requires identical Stats and
// shortlists after every step.
// Each history crosses several merges, removes templates from the delta
// and from the base, empties the index (every bucket) and refills it,
// and ends against a bulk-built index over the surviving set.
func TestCandidatesEqualReference(t *testing.T) { candidatesEqualReference(t) }

// TestCandidatesEqualReferenceMultiBlock runs the same histories over
// bases cut into blocks of 8 templates.
func TestCandidatesEqualReferenceMultiBlock(t *testing.T) {
	setBlockShift(t, multiBlockShift)
	candidatesEqualReference(t).requireMultiBlock(t)
}

func candidatesEqualReference(t *testing.T) (bt blockTrace) {
	cohort := population.NewCohort(rng.New(31), population.CohortOptions{Size: 48})
	tpls := captureGallery(t, cohort, "D0")
	probes := append(captureSample(t, cohort, "D0", 1)[:3], captureSample(t, cohort, "D1", 1)[3:6]...)
	steps := 160
	if testing.Short() {
		steps = 60
	}
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed).Child("history")
		ix, ref := New(Options{}), newReferenceIndex()
		enrolled := make([]bool, len(tpls))
		live := 0
		merges := 0
		apply := func(i int) {
			base := ix.base
			if enrolled[i] {
				if err := ix.Remove(subjectID(i)); err != nil {
					t.Fatal(err)
				}
				ref.remove(subjectID(i))
				live--
			} else {
				if err := ix.Add(subjectID(i), tpls[i]); err != nil {
					t.Fatal(err)
				}
				ref.add(subjectID(i), tpls[i])
				live++
			}
			enrolled[i] = !enrolled[i]
			if ix.base != base {
				merges++
			}
			bt.observe(ix, base)
		}
		for step := 0; step < steps; step++ {
			switch {
			case step == steps/2:
				// Empty every bucket, one removal at a time, then let
				// the history refill them.
				for i := range tpls {
					if enrolled[i] {
						apply(i)
					}
				}
			case step == steps/4:
				ix = New(ix.Options())
				ref.reset()
				clear(enrolled)
				live = 0
			default:
				// Lean towards adding while the index is small so the
				// history spends its time around 20–40 templates.
				i := r.Intn(len(tpls))
				for tries := 0; enrolled[i] == (live < 30) && tries < 4; tries++ {
					i = r.Intn(len(tpls))
				}
				apply(i)
			}
			requireEqualsReference(t, "after step", ix, ref, probes[step%len(probes):][:1])
		}
		if merges < 3 {
			t.Fatalf("seed %d: history crossed %d merges; want at least 3", seed, merges)
		}
		requireEqualsReference(t, "end of history", ix, ref, probes)

		var ids []string
		var set []*minutiae.Template
		for i, on := range enrolled {
			if on {
				ids = append(ids, subjectID(i))
				set = append(set, tpls[i])
			}
		}
		bulk, err := Build(Options{}, ids, keysFrom(set))
		if err != nil {
			t.Fatal(err)
		}
		requireEqualsReference(t, "bulk-built", bulk, ref, probes)
		// A bulk-built index keeps taking mutations like any other.
		if len(ids) > 0 {
			if err := bulk.Remove(ids[0]); err != nil {
				t.Fatal(err)
			}
			ref.remove(ids[0])
			requireEqualsReference(t, "bulk-built after Remove", bulk, ref, probes)
		}
	}
	return bt
}

// TestBuildRejectsBadInput: Build refuses a duplicate ID. A duplicate
// among many templates stops the key-extraction workers wherever they
// are — blocked on a full queue when it comes early, done when it comes
// last — and none outlives the call.
func TestBuildRejectsBadInput(t *testing.T) {
	cohort := population.NewCohort(rng.New(32), population.CohortOptions{Size: 2})
	tpls := captureGallery(t, cohort, "D0")
	if _, err := Build(Options{}, []string{"a", "a"}, keysFrom(tpls)); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	const n = 240
	many := make([]*minutiae.Template, n)
	for i := range many {
		many[i] = tpls[i%len(tpls)]
	}
	for _, at := range []int{1, n - 1} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = subjectID(i)
		}
		ids[at] = ids[0]
		before := runtime.NumGoroutine()
		built := make(chan error, 1)
		go func() {
			_, err := Build(Options{}, ids, keysFrom(many))
			built <- err
		}()
		select {
		case err := <-built:
			if !errors.Is(err, ErrDuplicate) {
				t.Fatalf("duplicate at %d of %d: err = %v, want ErrDuplicate", at, n, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("duplicate at %d of %d: Build still waiting on its workers after 10 s", at, n)
		}
		waitGoroutines(t, before)
	}
}

// waitGoroutines fails the test unless the goroutine count returns to
// want: a worker that has signalled its WaitGroup may still be on its
// way out when the call that waited for it returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before it", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestBuildEqualsSerialAdd: the pipelined bulk build gives the index
// New plus in-order Adds gives — equal Stats, identical shortlists and
// score bits — and still does after the same removals from both.
func TestBuildEqualsSerialAdd(t *testing.T) { buildEqualsSerialAdd(t) }

// TestBuildEqualsSerialAddMultiBlock builds and adds into bases cut into
// blocks of 8 templates.
func TestBuildEqualsSerialAddMultiBlock(t *testing.T) {
	setBlockShift(t, multiBlockShift)
	buildEqualsSerialAdd(t).requireMultiBlock(t)
}

func buildEqualsSerialAdd(t *testing.T) (bt blockTrace) {
	cohort := population.NewCohort(rng.New(33), population.CohortOptions{Size: 60})
	tpls := captureGallery(t, cohort, "D0")
	probes := append(captureSample(t, cohort, "D0", 1)[:4], captureSample(t, cohort, "D1", 1)[4:8]...)
	ids := make([]string, len(tpls))
	serial := New(Options{})
	for i, tpl := range tpls {
		ids[i] = subjectID(i)
		base := serial.base
		if err := serial.Add(ids[i], tpl); err != nil {
			t.Fatal(err)
		}
		bt.observe(serial, base)
	}
	bulk, err := Build(Options{}, ids, keysFrom(tpls))
	if err != nil {
		t.Fatal(err)
	}
	requireSame := func(when string) {
		t.Helper()
		if got, want := bulk.Stats(), serial.Stats(); got != want {
			t.Fatalf("%s: Stats = %+v, serial adds %+v", when, got, want)
		}
		for pi, probe := range probes {
			for _, fanout := range []int{0, 5} {
				if got, want := bulk.Candidates(probe, fanout), serial.Candidates(probe, fanout); !sameShortlist(got, want) {
					t.Fatalf("%s: probe %d fanout %d:\n got %+v\nwant %+v", when, pi, fanout, got, want)
				}
			}
		}
	}
	requireSame("built")
	for i := 0; i < len(ids); i += 7 {
		for _, ix := range []*Index{bulk, serial} {
			base := ix.base
			if err := ix.Remove(ids[i]); err != nil {
				t.Fatal(err)
			}
			bt.observe(ix, base)
		}
	}
	requireSame("after removals")
	return bt
}

// TestConcurrentLookupsAndMutation runs voters against a writer whose
// adds and removes cross several merges, and holds every shortlist to
// the snapshot contract: it must be exactly what the reference returns
// for the index as it stood after some whole number of the writer's
// operations, no earlier than those finished before the vote began and
// no later than the one in flight when it returned.
func TestConcurrentLookupsAndMutation(t *testing.T) { concurrentLookupsAndMutation(t) }

// TestConcurrentLookupsAndMutationMultiBlock runs the same writer and
// voters over bases cut into blocks of 8 templates.
func TestConcurrentLookupsAndMutationMultiBlock(t *testing.T) {
	setBlockShift(t, multiBlockShift)
	concurrentLookupsAndMutation(t).requireMultiBlock(t)
}

func concurrentLookupsAndMutation(t *testing.T) (bt blockTrace) {
	cohort := population.NewCohort(rng.New(18), population.CohortOptions{Size: 40})
	tpls := captureGallery(t, cohort, "D0")
	const stable = 12
	ix := New(Options{})
	for i := 0; i < stable; i++ {
		if err := ix.Add(subjectID(i), tpls[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The writer's history: enroll the rest, remove them (the first of
	// them are in the base by then), twice over.
	var history []int
	for round := 0; round < 2; round++ {
		for pass := 0; pass < 2; pass++ {
			for i := stable; i < len(tpls); i++ {
				history = append(history, i)
			}
		}
	}

	type vote struct {
		probe       int
		from, until int // history prefix lengths bounding the vote
		got         []Candidate
	}
	var done atomic.Int64 // operations the writer has completed
	var wg sync.WaitGroup
	votes := make([][]vote, 4)
	for w := range votes {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; int(done.Load()) < len(history); rep++ {
				v := vote{probe: (w + rep) % stable, from: int(done.Load())}
				v.got = ix.Candidates(tpls[v.probe], 8)
				v.until = min(int(done.Load())+1, len(history))
				votes[w] = append(votes[w], v)
			}
		}(w)
	}
	merges := 0
	for _, i := range history {
		base := ix.base
		var err error
		if _, enrolled := ix.loc[subjectID(i)]; enrolled {
			err = ix.Remove(subjectID(i))
		} else {
			err = ix.Add(subjectID(i), tpls[i])
		}
		if err != nil {
			done.Store(int64(len(history))) // release the voters
			t.Fatal(err)
		}
		if ix.base != base {
			merges++
		}
		bt.observe(ix, base)
		done.Add(1)
	}
	wg.Wait()
	if merges < 3 {
		t.Fatalf("writer crossed %d merges; want at least 3", merges)
	}
	if n := ix.Stats().Templates; n != stable {
		t.Fatalf("templates after churn = %d", n)
	}

	// Replay the history on the reference, checking each vote against
	// the states inside its window.
	ref := newReferenceIndex()
	for i := 0; i < stable; i++ {
		ref.add(subjectID(i), tpls[i])
	}
	matched := make([][]bool, len(votes))
	for w := range votes {
		matched[w] = make([]bool, len(votes[w]))
	}
	total := 0
	for n := 0; n <= len(history); n++ {
		if n > 0 {
			i := history[n-1]
			if _, enrolled := ref.refs[subjectID(i)]; enrolled {
				ref.remove(subjectID(i))
			} else {
				ref.add(subjectID(i), tpls[i])
			}
		}
		var want [stable][]Candidate // the reference's shortlists at this state, on demand
		for w := range votes {
			for vi, v := range votes[w] {
				if matched[w][vi] || n < v.from || n > v.until {
					continue
				}
				if want[v.probe] == nil {
					want[v.probe] = ref.candidates(tpls[v.probe], 8)
				}
				matched[w][vi] = sameShortlist(v.got, want[v.probe])
			}
		}
	}
	for w := range votes {
		for vi, v := range votes[w] {
			total++
			if !matched[w][vi] {
				t.Fatalf("voter %d vote %d (probe %d, operations %d..%d) matches no state of the index in its window: %+v",
					w, vi, v.probe, v.from, v.until, v.got)
			}
		}
	}
	if total == 0 {
		t.Fatal("no vote overlapped the writer")
	}
	return bt
}
