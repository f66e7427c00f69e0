package study

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
)

// setProcs sets GOMAXPROCS — the study's worker count — to n for the
// rest of the test.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestForEachCell: every cell of the matrix is visited once, under its
// own (row, column), and of two failing cells the first in row-major
// order is the one reported, at any worker count.
func TestForEachCell(t *testing.T) {
	const nDev = 5
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		var hits [nDev][nDev]atomic.Int64
		err := forEachCell(nDev, func(i, j int) error {
			hits[i][j].Add(1)
			if (i == 1 && j == 3) || (i == 3 && j == 0) {
				return fmt.Errorf("cell %d,%d failed", i, j)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 1,3 failed" {
			t.Fatalf("GOMAXPROCS %d: error %v, want cell 1,3's", procs, err)
		}
		for i := range hits {
			for j := range hits[i] {
				if n := hits[i][j].Load(); n != 1 {
					t.Fatalf("GOMAXPROCS %d: cell %d,%d visited %d times", procs, i, j, n)
				}
			}
		}
	}
}

// TestParallelAnalysesDeterministic computes every cell-parallel
// analysis several times concurrently and requires identical results —
// under -race this also proves the worker pools share no cell state.
func TestParallelAnalysesDeterministic(t *testing.T) {
	ds, sets := testStudy(t)
	type result struct {
		eer   EERMatrixData
		fnmr  FNMRMatrixData
		t4    Table4Data
		shift ShiftAnalysis
	}
	compute := func() (result, error) {
		var r result
		var err error
		if r.eer, err = EERMatrix(ds, sets); err != nil {
			return r, err
		}
		if r.fnmr, err = FNMRMatrix(ds, sets, FNMRMatrixOptions{TargetFMR: 0.01}); err != nil {
			return r, err
		}
		if r.t4, err = Table4(ds, sets); err != nil {
			return r, err
		}
		r.shift, err = Shift(ds, sets)
		return r, err
	}
	const runs = 4
	results := make([]result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = compute()
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("concurrent run %d differs from run 0", i)
		}
	}
}

// selectiveFailMatcher fails deterministically for one gallery template
// and counts every comparison attempted.
type selectiveFailMatcher struct {
	inner match.Matcher
	bad   *minutiae.Template
	calls atomic.Int64
}

func (m *selectiveFailMatcher) Match(g, p *minutiae.Template) (match.Result, error) {
	m.calls.Add(1)
	if g == m.bad {
		return match.Result{}, errors.New("injected matcher failure")
	}
	return m.inner.Match(g, p)
}

// TestGenerateScoresMatcherError checks that a match error fails the run
// loudly without a worker abandoning the rest of its work: every
// comparison must still be attempted, the error must say how many
// failed, and the failure it names is the same on every run at any
// worker count — the first failing comparison in job order.
func TestGenerateScoresMatcherError(t *testing.T) {
	cfg := Config{Seed: 7, Subjects: 4, MaxDMI: 20, MaxDDMI: 20}
	ds, err := BuildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := GenerateScores(ds)
	if err != nil {
		t.Fatal(err)
	}
	total := len(clean.DMG) + len(clean.DDMG) + len(clean.DMI) + len(clean.DDMI) + len(clean.GenuineAll)

	inner := ds.Config.Matcher
	var first string
	for _, procs := range []int{1, 4, 1, 4, 4} {
		setProcs(t, procs)
		fm := &selectiveFailMatcher{inner: inner, bad: ds.Impression(0, 0, 0).Template}
		ds.Config.Matcher = fm
		sets, err := GenerateScores(ds)
		if err == nil {
			t.Fatal("expected an error from the failing matcher")
		}
		if sets != nil {
			t.Fatal("failed run must not return partial score sets")
		}
		if !strings.Contains(err.Error(), "comparisons failed") ||
			!strings.Contains(err.Error(), "injected matcher failure") {
			t.Fatalf("error does not report failure count and cause: %v", err)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("GOMAXPROCS %d: error\n%s\nwant the first run's\n%s", procs, err, first)
		}
		if got := fm.calls.Load(); got != int64(total) {
			t.Fatalf("only %d of %d comparisons attempted: a worker dropped its share", got, total)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("of %d comparisons", total)) {
			t.Fatalf("error does not name the comparison total %d: %v", total, err)
		}
	}
}
