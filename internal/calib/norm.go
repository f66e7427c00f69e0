package calib

import (
	"fmt"
	"math"

	"fpinterop/internal/nfiq"
)

// ScoredComparison is one labelled training score for quality-conditioned
// normalization.
type ScoredComparison struct {
	Score              float64
	QualityG, QualityP nfiq.Class
	Genuine            bool
}

// QualityNorm is a Poh-style quality-conditioned score normalizer: it
// z-normalizes a raw similarity score against the impostor mean and
// standard deviation observed for the (gallery quality, probe quality)
// condition, falling back to global impostor statistics for unseen
// conditions.
type QualityNorm struct {
	mean, std     [5][5]float64
	count         [5][5]int
	globMean      float64
	globStd       float64
	globCount     int
	minConditionN int
}

// FitQualityNorm learns impostor statistics per quality condition.
// Conditions with fewer than minConditionN impostor samples (default 30)
// fall back to the global statistics.
func FitQualityNorm(training []ScoredComparison, minConditionN int) (*QualityNorm, error) {
	if minConditionN <= 0 {
		minConditionN = 30
	}
	qn := &QualityNorm{minConditionN: minConditionN}
	var sum, sumSq [5][5]float64
	var gSum, gSumSq float64
	for _, s := range training {
		if s.Genuine {
			continue // normalization is against impostor statistics
		}
		if !s.QualityG.Valid() || !s.QualityP.Valid() {
			continue
		}
		i, j := s.QualityG-1, s.QualityP-1
		sum[i][j] += s.Score
		sumSq[i][j] += s.Score * s.Score
		qn.count[i][j]++
		gSum += s.Score
		gSumSq += s.Score * s.Score
		qn.globCount++
	}
	if qn.globCount < minConditionN {
		return nil, fmt.Errorf("calib: only %d impostor scores; need >= %d", qn.globCount, minConditionN)
	}
	qn.globMean = gSum / float64(qn.globCount)
	qn.globStd = stddev(gSumSq, gSum, qn.globCount)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if qn.count[i][j] >= minConditionN {
				qn.mean[i][j] = sum[i][j] / float64(qn.count[i][j])
				qn.std[i][j] = stddev(sumSq[i][j], sum[i][j], qn.count[i][j])
			}
		}
	}
	return qn, nil
}

func stddev(sumSq, sum float64, n int) float64 {
	if n == 0 {
		return 1
	}
	m := sum / float64(n)
	v := sumSq/float64(n) - m*m
	if v < 1e-6 {
		return 1e-3
	}
	// Population standard deviation; floor avoids division blow-ups.
	return math.Sqrt(v)
}

// Normalize maps a raw score to its z-score under the impostor model of
// the observed quality condition. Thresholding the normalized score is
// equivalent to using a quality-dependent decision threshold on raw
// scores — Poh et al.'s device/quality-conditioned normalization.
func (qn *QualityNorm) Normalize(score float64, qg, qp nfiq.Class) float64 {
	if qg.Valid() && qp.Valid() && qn.count[qg-1][qp-1] >= qn.minConditionN {
		return (score - qn.mean[qg-1][qp-1]) / qn.std[qg-1][qp-1]
	}
	return (score - qn.globMean) / qn.globStd
}

// FuseSum combines multiple genuine-attempt scores with the sum rule
// (mean, so the scale stays comparable to single attempts).
func FuseSum(scores []float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range scores {
		s += x
	}
	return s / float64(len(scores))
}
