package gallery

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"fpinterop/internal/index"
	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// enrolledStore builds a store with n subjects enrolled on enrollDev and
// returns matching probes captured on probeDev.
func enrolledStore(t *testing.T, n int, enrollDev, probeDev string) (*Store, []*minutiae.Template, []string) {
	t.Helper()
	cohort := population.NewCohort(rng.New(31337), population.CohortOptions{Size: n})
	ed, ok := sensor.ProfileByID(enrollDev)
	if !ok {
		t.Fatalf("unknown device %s", enrollDev)
	}
	pd, _ := sensor.ProfileByID(probeDev)
	s := New(nil)
	var probes []*minutiae.Template
	var ids []string
	for i, subj := range cohort.Subjects {
		g, err := ed.CaptureSubject(subj, 0, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		id := "subject-" + string(rune('A'+i))
		if err := s.Enroll(id, enrollDev, g.Template); err != nil {
			t.Fatal(err)
		}
		p, err := pd.CaptureSubject(subj, 1, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, p.Template)
		ids = append(ids, id)
	}
	return s, probes, ids
}

func TestEnrollAndLen(t *testing.T) {
	s, _, _ := enrolledStore(t, 5, "D0", "D0")
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestEnrollValidation(t *testing.T) {
	s := New(nil)
	if err := s.Enroll("x", "D0", nil); err == nil {
		t.Fatal("expected nil-template error")
	}
	bad := &minutiae.Template{Width: -1}
	if err := s.Enroll("x", "D0", bad); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestEnrollDuplicate(t *testing.T) {
	s := New(nil)
	tpl := &minutiae.Template{Width: 100, Height: 100, DPI: 500}
	if err := s.Enroll("a", "D0", tpl); err != nil {
		t.Fatal(err)
	}
	if err := s.Enroll("a", "D0", tpl); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
}

func TestEnrollClonesTemplate(t *testing.T) {
	s := New(nil)
	tpl := &minutiae.Template{Width: 100, Height: 100, DPI: 500,
		Minutiae: []minutiae.Minutia{{X: 10, Y: 10, Angle: 1, Kind: minutiae.Ending}}}
	if err := s.Enroll("a", "D0", tpl); err != nil {
		t.Fatal(err)
	}
	tpl.Minutiae[0].X = 99 // caller mutation must not corrupt the store
	res, err := s.VerifyContext(context.Background(), "a", &minutiae.Template{Width: 100, Height: 100, DPI: 500,
		Minutiae: []minutiae.Minutia{{X: 10, Y: 10, Angle: 1, Kind: minutiae.Ending}}})
	if err != nil {
		t.Fatal(err)
	}
	_ = res // the verify itself succeeding on the original data is the point
}

func TestRemove(t *testing.T) {
	s, _, ids := enrolledStore(t, 3, "D0", "D0")
	if err := s.Remove(ids[1]); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len after remove = %d", s.Len())
	}
	if err := s.Remove(ids[1]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestVerifyGenuineAndUnknown(t *testing.T) {
	s, probes, ids := enrolledStore(t, 4, "D0", "D0")
	res, err := s.VerifyContext(context.Background(), ids[0], probes[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < 7 {
		t.Fatalf("genuine verify score %v", res.Score)
	}
	if _, err := s.VerifyContext(context.Background(), "ghost", probes[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestIdentifyFindsTrueIdentityAtRankOne(t *testing.T) {
	s, probes, ids := enrolledStore(t, 8, "D0", "D0")
	hits := 0
	for i, p := range probes {
		cands, err := s.IdentifyContext(context.Background(), p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != 3 {
			t.Fatalf("top-k size %d", len(cands))
		}
		if cands[0].ID == ids[i] {
			hits++
		}
	}
	if hits < 7 {
		t.Fatalf("rank-1 hits %d/8 on same-device identification", hits)
	}
}

func TestIdentifyKZeroReturnsAll(t *testing.T) {
	s, probes, _ := enrolledStore(t, 4, "D0", "D0")
	cands, err := s.IdentifyContext(context.Background(), probes[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 4 {
		t.Fatalf("got %d candidates, want all 4", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatal("candidates not sorted")
		}
	}
}

func TestIdentifyNilProbe(t *testing.T) {
	s, _, _ := enrolledStore(t, 2, "D0", "D0")
	if _, err := s.IdentifyContext(context.Background(), nil, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestRank(t *testing.T) {
	s, probes, ids := enrolledStore(t, 6, "D0", "D0")
	r, err := s.RankContext(context.Background(), probes[2], ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if r < 1 || r > 6 {
		t.Fatalf("rank %d out of range", r)
	}
	r, err = s.RankContext(context.Background(), probes[2], "not-enrolled")
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Fatalf("missing identity rank %d, want 0", r)
	}
}

func TestCMCMonotoneAndCrossDeviceLower(t *testing.T) {
	same, sameProbes, sameIDs := enrolledStore(t, 10, "D0", "D0")
	cmcSame, err := ComputeCMCContext(context.Background(), same, sameProbes, sameIDs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(cmcSame); k++ {
		if cmcSame[k] < cmcSame[k-1] {
			t.Fatal("CMC not monotone")
		}
	}
	if cmcSame.RankOne() < 0.7 {
		t.Fatalf("same-device rank-1 rate %v too low", cmcSame.RankOne())
	}
	// Cross-device identification (probe from the ink cards) cannot beat
	// same-device.
	cross, crossProbes, crossIDs := enrolledStore(t, 10, "D0", "D4")
	cmcCross, err := ComputeCMCContext(context.Background(), cross, crossProbes, crossIDs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cmcCross.RankOne() > cmcSame.RankOne() {
		t.Fatalf("ink probes identified better (%v) than same-device (%v)",
			cmcCross.RankOne(), cmcSame.RankOne())
	}
}

func TestComputeCMCErrors(t *testing.T) {
	s, probes, ids := enrolledStore(t, 2, "D0", "D0")
	if _, err := ComputeCMCContext(context.Background(), s, probes, ids[:1], 3); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := ComputeCMCContext(context.Background(), s, probes, ids, 0); err == nil {
		t.Fatal("expected maxRank error")
	}
	if _, err := ComputeCMCContext(context.Background(), s, nil, nil, 3); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestStoreConcurrentUse(t *testing.T) {
	s, probes, ids := enrolledStore(t, 4, "D0", "D0")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := s.IdentifyContext(context.Background(), probes[w%len(probes)], 2); err != nil {
					panic(err)
				}
				if _, err := s.VerifyContext(context.Background(), ids[w%len(ids)], probes[w%len(probes)]); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestNewDefaultsMatcher(t *testing.T) {
	s := New(nil)
	if s.matcher == nil {
		t.Fatal("nil matcher not defaulted")
	}
	custom := New(&match.GreedyMatcher{})
	if _, ok := custom.matcher.(*match.GreedyMatcher); !ok {
		t.Fatal("custom matcher not kept")
	}
}

func TestEmptyCMCRankOne(t *testing.T) {
	var c CMC
	if c.RankOne() != 0 {
		t.Fatal("empty CMC rank-1 should be 0")
	}
}

// errAfterMatcher fails every comparison once the counter trips,
// exercising error propagation through the parallel scan.
type errAfterMatcher struct {
	mu    sync.Mutex
	calls int
	after int
}

func (m *errAfterMatcher) Match(g, p *minutiae.Template) (match.Result, error) {
	m.mu.Lock()
	m.calls++
	trip := m.calls > m.after
	m.mu.Unlock()
	if trip {
		return match.Result{}, errors.New("matcher budget exceeded")
	}
	return (&match.HoughMatcher{}).Match(g, p)
}

// setProcs sets GOMAXPROCS — the store's worker count — to n for the
// rest of the test.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestIdentifyParallelMatchesSerial(t *testing.T) {
	s, probes, _ := enrolledStore(t, 10, "D0", "D1")
	setProcs(t, 1)
	serial, err := s.IdentifyContext(context.Background(), probes[3], 0)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 4)
	parallel, err := s.IdentifyContext(context.Background(), probes[3], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}

func TestIdentifyParallelErrorPropagates(t *testing.T) {
	cohort := population.NewCohort(rng.New(31337), population.CohortOptions{Size: 6})
	d0, _ := sensor.ProfileByID("D0")
	s := New(&errAfterMatcher{after: 3})
	for i, subj := range cohort.Subjects {
		imp, err := d0.CaptureSubject(subj, 0, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Enroll("subject-"+string(rune('A'+i)), "D0", imp.Template); err != nil {
			t.Fatal(err)
		}
	}
	setProcs(t, 3)
	probe, err := d0.CaptureSubject(cohort.Subjects[0], 1, sensor.CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IdentifyContext(context.Background(), probe.Template, 0); err == nil {
		t.Fatal("matcher failure swallowed by parallel scan")
	}
}

// TestIdentifyConcurrentMutationRace exercises the parallel scan and
// the incremental index under concurrent enrollment churn; run with
// -race.
func TestIdentifyConcurrentMutationRace(t *testing.T) {
	s, probes, _ := enrolledStore(t, 12, "D0", "D0")
	if err := s.EnableIndex(IndexOptions{MinCandidates: 2}); err != nil {
		t.Fatal(err)
	}
	setProcs(t, 4)
	extra := &minutiae.Template{Width: 400, Height: 400, DPI: 500}
	cohort := population.NewCohort(rng.New(777), population.CohortOptions{Size: 8})
	d0, _ := sensor.ProfileByID("D0")
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := s.IdentifyContext(context.Background(), probes[(w+i)%len(probes)], 3); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, subj := range cohort.Subjects {
			imp, err := d0.CaptureSubject(subj, 0, sensor.CaptureOptions{})
			if err != nil {
				panic(err)
			}
			id := "churn-" + string(rune('a'+i))
			if err := s.Enroll(id, "D0", imp.Template); err != nil {
				panic(err)
			}
			if err := s.Remove(id); err != nil {
				panic(err)
			}
		}
	}()
	wg.Wait()
	_ = extra
	if s.Len() != 12 {
		t.Fatalf("Len after churn = %d", s.Len())
	}
}

func TestRankMatchesIdentifyOrdering(t *testing.T) {
	s, probes, ids := enrolledStore(t, 8, "D0", "D1")
	for p := range probes {
		cands, err := s.IdentifyContext(context.Background(), probes[p], 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, trueID := range ids {
			want := 0
			for i, c := range cands {
				if c.ID == trueID {
					want = i + 1
					break
				}
			}
			got, err := s.RankContext(context.Background(), probes[p], trueID)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("probe %d trueID %s: direct rank %d, sorted rank %d", p, trueID, got, want)
			}
		}
	}
	if r, err := s.RankContext(context.Background(), probes[0], "not-enrolled"); err != nil || r != 0 {
		t.Fatalf("missing identity rank %d err %v", r, err)
	}
	if _, err := s.RankContext(context.Background(), nil, ids[0]); err == nil {
		t.Fatal("nil probe accepted")
	}
}

func TestIndexedIdentifyAgreesOnTopCandidate(t *testing.T) {
	s, probes, ids := enrolledStore(t, 30, "D0", "D0")
	exhaustive := make([]Candidate, len(probes))
	for i, p := range probes {
		cands, err := s.IdentifyContext(context.Background(), p, 1)
		if err != nil {
			t.Fatal(err)
		}
		exhaustive[i] = cands[0]
	}
	if err := s.EnableIndex(IndexOptions{Index: index.Options{Fanout: 12}}); err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i, p := range probes {
		cands, stats, err := s.IdentifyDetailedContext(context.Background(), p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Indexed {
			t.Fatalf("probe %d not served by the index (shortlist %d)", i, stats.Shortlist)
		}
		if stats.Scanned >= stats.GallerySize {
			t.Fatalf("probe %d: indexed path scanned the whole gallery (%d/%d)",
				i, stats.Scanned, stats.GallerySize)
		}
		if len(cands) == 1 && cands[0] == exhaustive[i] {
			agree++
		}
	}
	if agree < len(probes)-1 {
		t.Fatalf("indexed top-1 agrees on only %d/%d probes", agree, len(probes))
	}
	_ = ids
}

func TestIndexedIdentifyRecallGuardFallsBack(t *testing.T) {
	s, probes, _ := enrolledStore(t, 4, "D0", "D0")
	if err := s.EnableIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	// Gallery smaller than MinCandidates: the guard must force the
	// exhaustive path, and results must still be complete.
	cands, stats, err := s.IdentifyDetailedContext(context.Background(), probes[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Indexed {
		t.Fatal("recall guard did not trip on a tiny gallery")
	}
	if len(cands) != 2 || stats.Scanned != 4 {
		t.Fatalf("fallback scan incomplete: %d candidates, %d scanned", len(cands), stats.Scanned)
	}
	// k <= 0 always takes the exhaustive path (full ranking requested).
	_, stats, err = s.IdentifyDetailedContext(context.Background(), probes[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Indexed {
		t.Fatal("full ranking served from the shortlist")
	}
}

func TestEnrollRemoveKeepIndexInSync(t *testing.T) {
	s, probes, ids := enrolledStore(t, 12, "D0", "D0")
	if err := s.EnableIndex(IndexOptions{MinCandidates: 2}); err != nil {
		t.Fatal(err)
	}
	st, ok := s.IndexStats()
	if !ok || st.Templates != 12 {
		t.Fatalf("index stats after enable: %+v ok=%v", st, ok)
	}
	if err := s.Remove(ids[5]); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.IndexStats(); st.Templates != 11 {
		t.Fatalf("index stats after remove: %+v", st)
	}
	// The removed identity must no longer be retrievable at top-1.
	cands, _, err := s.IdentifyDetailedContext(context.Background(), probes[5], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) > 0 && cands[0].ID == ids[5] {
		t.Fatal("removed enrollment still identified")
	}
	// Re-enrolling restores it.
	d0, _ := sensor.ProfileByID("D0")
	cohort := population.NewCohort(rng.New(31337), population.CohortOptions{Size: 12})
	imp, err := d0.CaptureSubject(cohort.Subjects[5], 0, sensor.CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Enroll(ids[5], "D0", imp.Template); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.IndexStats(); st.Templates != 12 {
		t.Fatalf("index stats after re-enroll: %+v", st)
	}
	cands, err = s.IdentifyContext(context.Background(), probes[5], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].ID != ids[5] {
		t.Fatalf("re-enrolled identity not found: %+v", cands)
	}
}

// TestIndexKeysDerivedWithoutStoreLock: an indexed Enroll, the insert
// of an item derived before the index was enabled, and Removes from
// the index's delta and base all derive their index keys with Store.mu
// free, so searches never wait behind a derivation.
func TestIndexKeysDerivedWithoutStoreLock(t *testing.T) {
	s, probes, ids := enrolledStore(t, 12, "D0", "D0")
	late := s.derive(Export{ID: "late", DeviceID: "D0", Template: probes[0]}, false)
	if err := s.EnableIndex(IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	derivations := 0
	saved := appendKeys
	defer func() { appendKeys = saved }()
	appendKeys = func(dst []uint64, tpl *minutiae.Template) []uint64 {
		derivations++
		if !s.mu.TryLock() {
			t.Error("index keys derived while Store.mu was held")
		} else {
			s.mu.Unlock()
		}
		return saved(dst, tpl)
	}
	if err := s.insert(late); err != nil {
		t.Fatal(err)
	}
	if err := s.Enroll("more", "D0", probes[1]); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"late", ids[3]} {
		if err := s.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if derivations != 4 {
		t.Fatalf("%d key derivations; want 4", derivations)
	}
	if st, _ := s.IndexStats(); st.Templates != s.Len() {
		t.Fatalf("index holds %d templates, store %d", st.Templates, s.Len())
	}
}

func TestIdentifyKEdgeCases(t *testing.T) {
	s, probes, _ := enrolledStore(t, 4, "D0", "D0")
	// k equal to the gallery size is a full ranking.
	atLen, err := s.IdentifyContext(context.Background(), probes[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(atLen) != 4 {
		t.Fatalf("k=len returned %d candidates", len(atLen))
	}
	// k beyond the gallery size clamps to a full ranking rather than
	// erroring or padding.
	beyond, err := s.IdentifyContext(context.Background(), probes[0], 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(beyond) != 4 {
		t.Fatalf("k>len returned %d candidates", len(beyond))
	}
	for i := range atLen {
		if beyond[i] != atLen[i] {
			t.Fatalf("k>len ranking diverged at %d: %+v vs %+v", i, beyond[i], atLen[i])
		}
	}
	// k=0 is the documented full-ranking path.
	all, err := s.IdentifyContext(context.Background(), probes[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("k=0 returned %d candidates", len(all))
	}
}

func TestIdentifyEmptyStore(t *testing.T) {
	cohort := population.NewCohort(rng.New(7), population.CohortOptions{Size: 1})
	dev, _ := sensor.ProfileByID("D0")
	imp, err := dev.CaptureSubject(cohort.Subjects[0], 0, sensor.CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probe := imp.Template
	for _, idx := range []bool{false, true} {
		s := New(nil)
		if idx {
			if err := s.EnableIndex(IndexOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int{0, 1, 5} {
			cands, stats, err := s.IdentifyDetailedContext(context.Background(), probe, k)
			if err != nil {
				t.Fatalf("indexed=%v k=%d: %v", idx, k, err)
			}
			if cands == nil {
				t.Fatalf("indexed=%v k=%d: nil candidate list from empty store", idx, k)
			}
			if len(cands) != 0 {
				t.Fatalf("indexed=%v k=%d: %d candidates from empty store", idx, k, len(cands))
			}
			if stats.GallerySize != 0 || stats.Scanned != 0 {
				t.Fatalf("indexed=%v k=%d: implausible stats %+v", idx, k, stats)
			}
		}
	}
}

// TestIdentifyClampedKStillIndexed checks that an oversized k on an
// indexed store degrades to the exhaustive full ranking (shortlists
// cannot cover the whole gallery) without error.
func TestIdentifyClampedKOnIndexedStore(t *testing.T) {
	s, probes, _ := enrolledStore(t, 6, "D0", "D0")
	if err := s.EnableIndex(IndexOptions{MinCandidates: 1}); err != nil {
		t.Fatal(err)
	}
	cands, stats, err := s.IdentifyDetailedContext(context.Background(), probes[0], 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 6 {
		t.Fatalf("clamped k returned %d of 6 candidates", len(cands))
	}
	if stats.Scanned != 6 {
		t.Fatalf("full ranking must scan the whole gallery: %+v", stats)
	}
}

// TestIdentifyNegativeKMatchesZero pins the degenerate-k contract:
// every k <= 0 requests the same full ranking, on plain and indexed
// stores alike.
func TestIdentifyNegativeKMatchesZero(t *testing.T) {
	s, probes, _ := enrolledStore(t, 5, "D0", "D0")
	for _, indexed := range []bool{false, true} {
		if indexed {
			if err := s.EnableIndex(IndexOptions{MinCandidates: 1}); err != nil {
				t.Fatal(err)
			}
		}
		want, wantStats, err := s.IdentifyDetailedContext(context.Background(), probes[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{-1, -5, -1000} {
			got, stats, err := s.IdentifyDetailedContext(context.Background(), probes[0], k)
			if err != nil {
				t.Fatalf("indexed=%v k=%d: %v", indexed, k, err)
			}
			if len(got) != len(want) {
				t.Fatalf("indexed=%v k=%d: %d candidates, want %d", indexed, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("indexed=%v k=%d: candidate %d = %+v, want %+v", indexed, k, i, got[i], want[i])
				}
			}
			if stats != wantStats {
				t.Fatalf("indexed=%v k=%d: stats %+v, want %+v", indexed, k, stats, wantStats)
			}
		}
	}
}

// slowMatcher blocks each comparison until the delay elapses, making
// scan latency deterministic for cancellation tests.
type slowMatcher struct {
	delay time.Duration
}

func (m *slowMatcher) Match(g, p *minutiae.Template) (match.Result, error) {
	time.Sleep(m.delay)
	return match.Result{Score: 1}, nil
}

// TestIdentifyContextCancellationUnblocksScan proves a cancelled
// context stops the parallel exhaustive scan within one comparison's
// latency rather than running the gallery to completion, and that the
// store stays usable afterward.
func TestIdentifyContextCancellationUnblocksScan(t *testing.T) {
	cohort := population.NewCohort(rng.New(515), population.CohortOptions{Size: 1})
	d0, _ := sensor.ProfileByID("D0")
	imp, err := d0.CaptureSubject(cohort.Subjects[0], 0, sensor.CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	perMatch := 20 * time.Millisecond
	s := New(&slowMatcher{delay: perMatch})
	setProcs(t, 2)
	for i := 0; i < n; i++ {
		if err := s.Enroll(fmt.Sprintf("subject-%03d", i), "D0", imp.Template); err != nil {
			t.Fatal(err)
		}
	}
	// Uncancelled, the scan costs n/workers * perMatch = 640ms; cancel
	// at 50ms and require the return well under the full-scan cost.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = s.IdentifyDetailedContext(ctx, imp.Template, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 400*time.Millisecond {
		t.Fatalf("cancelled scan returned after %v", elapsed)
	}
	// Pre-cancelled contexts fail fast on every context-aware entry
	// point.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, _, err := s.IdentifyDetailedContext(pre, imp.Template, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("IdentifyDetailedContext pre-cancelled: %v", err)
	}
	if _, err := s.VerifyContext(pre, "subject-000", imp.Template); !errors.Is(err, context.Canceled) {
		t.Fatalf("VerifyContext pre-cancelled: %v", err)
	}
	// The store remains fully usable after a cancelled scan.
	cands, err := s.IdentifyContext(context.Background(), imp.Template, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 {
		t.Fatalf("post-cancel identify returned %d candidates", len(cands))
	}
}

// TestGet reads enrollments back after each kind of write.
func TestGet(t *testing.T) {
	tpl := func(x float64) *minutiae.Template {
		return &minutiae.Template{Width: 100, Height: 100, DPI: 500,
			Minutiae: []minutiae.Minutia{{X: x, Y: 10, Angle: 1, Kind: minutiae.Ending}}}
	}
	cases := []struct {
		name   string
		write  func(s *Store) error
		ok     bool
		device string
		x      float64
	}{
		{"unknown id", func(s *Store) error { return nil }, false, "", 0},
		{"enrolled", func(s *Store) error { return s.Enroll("a", "D0", tpl(10)) }, true, "D0", 10},
		{"removed", func(s *Store) error {
			if err := s.Enroll("a", "D0", tpl(10)); err != nil {
				return err
			}
			return s.Remove("a")
		}, false, "", 0},
		{"re-enrolled", func(s *Store) error {
			if err := s.Enroll("a", "D0", tpl(10)); err != nil {
				return err
			}
			if err := s.Remove("a"); err != nil {
				return err
			}
			return s.Enroll("a", "D1", tpl(20))
		}, true, "D1", 20},
		{"batch", func(s *Store) error {
			return s.EnrollBatch([]Export{{"b", "D2", tpl(30)}, {"a", "D1", tpl(40)}})
		}, true, "D1", 40},
		{"caller mutates after enroll", func(s *Store) error {
			in := tpl(10)
			err := s.Enroll("a", "D0", in)
			in.Minutiae[0].X = 99
			return err
		}, true, "D0", 10},
		{"replace all", func(s *Store) error {
			if err := s.Enroll("a", "D0", tpl(10)); err != nil {
				return err
			}
			return s.ReplaceAll([]Export{{"a", "D3", tpl(50)}})
		}, true, "D3", 50},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(nil)
			if err := c.write(s); err != nil {
				t.Fatal(err)
			}
			e, ok := s.Get("a")
			if ok != c.ok {
				t.Fatalf("Get ok = %v, want %v", ok, c.ok)
			}
			if !ok {
				if e != (Export{}) {
					t.Fatalf("missing id returned %+v", e)
				}
				return
			}
			if e.ID != "a" || e.DeviceID != c.device || !sameTemplate(e.Template, tpl(c.x)) {
				t.Fatalf("Get = {%s %s %+v}, want {a %s %+v}", e.ID, e.DeviceID, e.Template, c.device, tpl(c.x))
			}
		})
	}
}
