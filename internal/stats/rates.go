package stats

import "math"

// ThresholdForFMR returns the lowest decision threshold t such that the
// fraction of impostor scores ≥ t does not exceed target. Scores equal to
// the threshold count as matches (accept if score ≥ t). The impostor
// slice is not modified.
func ThresholdForFMR(impostor []float64, target float64) (float64, error) {
	return ScoreDistFromSorted(nil, SortedCopy(impostor)).ThresholdForFMR(target)
}

// nextAfter returns the smallest representable float64 greater than x.
func nextAfter(x float64) float64 {
	return math.Nextafter(x, math.Inf(1))
}

// FNMRAt returns the fraction of genuine scores rejected (< t).
func FNMRAt(genuine []float64, t float64) float64 {
	if len(genuine) == 0 {
		return 0
	}
	n := 0
	for _, s := range genuine {
		if s < t {
			n++
		}
	}
	return float64(n) / float64(len(genuine))
}
