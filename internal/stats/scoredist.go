package stats

import (
	"fmt"
	"math"
	"sort"
)

// ScoreDist is a reusable sorted representation of one genuine/impostor
// score partition. Sorting happens once at construction; every rate
// query afterwards is a binary search (point lookups) or a single merge
// sweep (EER), so computing a full operating characteristic over n
// scores costs O(n log n) total instead of the O(n²) threshold rescans
// of the naive formulation.
type ScoreDist struct {
	genuine  []float64 // ascending
	impostor []float64 // ascending
}

// ScoreDistFromSorted wraps two already-ascending slices without
// copying. The caller must not mutate them afterwards.
func ScoreDistFromSorted(genuine, impostor []float64) *ScoreDist {
	return &ScoreDist{genuine: genuine, impostor: impostor}
}

// FNMRAt returns the fraction of genuine scores rejected (< t).
func (d *ScoreDist) FNMRAt(t float64) float64 {
	n := len(d.genuine)
	if n == 0 {
		return 0
	}
	return float64(sort.SearchFloat64s(d.genuine, t)) / float64(n)
}

// ThresholdForFMR returns the lowest decision threshold t such that the
// fraction of impostor scores ≥ t does not exceed target. Scores equal
// to the threshold count as matches (accept if score ≥ t).
func (d *ScoreDist) ThresholdForFMR(target float64) (float64, error) {
	n := len(d.impostor)
	if n == 0 {
		return 0, fmt.Errorf("stats: no impostor scores")
	}
	if target < 0 || target > 1 {
		return 0, fmt.Errorf("stats: target FMR %v outside [0, 1]", target)
	}
	// Allowed number of false matches.
	allowed := int(target * float64(n))
	if allowed >= n {
		return d.impostor[0], nil
	}
	// Threshold just above the (allowed+1)-th largest score.
	idx := n - allowed - 1 // index of the largest score that must be rejected
	return nextAfter(d.impostor[idx]), nil
}

// FNMRAtFMR fixes the threshold from the impostor distribution at the
// target FMR, then reports the genuine rejection rate at that threshold
// (the paper's Tables 5 and 6 operating point).
func (d *ScoreDist) FNMRAtFMR(targetFMR float64) (fnmr, threshold float64, err error) {
	t, err := d.ThresholdForFMR(targetFMR)
	if err != nil {
		return 0, 0, err
	}
	return d.FNMRAt(t), t, nil
}

// EER returns the equal error rate — the operating point where FMR and
// FNMR meet — and the threshold achieving it. Candidate thresholds are
// the pooled scores themselves, visited in one ascending merge sweep
// with FMR/FNMR maintained incrementally; ties on the gap keep the
// lowest threshold, exactly as the brute-force sweep does.
func (d *ScoreDist) EER() (rate, threshold float64, err error) {
	nG, nI := len(d.genuine), len(d.impostor)
	if nG == 0 || nI == 0 {
		return 0, 0, fmt.Errorf("stats: EER needs both genuine and impostor scores")
	}
	bestGap := 2.0
	gi, ii := 0, 0 // counts of genuine/impostor scores strictly below t
	for gi < nG || ii < nI {
		var t float64
		switch {
		case gi >= nG:
			t = d.impostor[ii]
		case ii >= nI:
			t = d.genuine[gi]
		case d.genuine[gi] <= d.impostor[ii]:
			t = d.genuine[gi]
		default:
			t = d.impostor[ii]
		}
		fmr := float64(nI-ii) / float64(nI)
		fnmr := float64(gi) / float64(nG)
		gap := math.Abs(fmr - fnmr)
		if gap < bestGap {
			bestGap = gap
			rate = (fmr + fnmr) / 2
			threshold = t
		}
		for gi < nG && d.genuine[gi] == t {
			gi++
		}
		for ii < nI && d.impostor[ii] == t {
			ii++
		}
	}
	return rate, threshold, nil
}
