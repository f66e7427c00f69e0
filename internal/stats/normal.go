// Package stats implements the statistical machinery of the study:
// Kendall rank correlation with extreme-tail p-values (the paper reports
// values down to 5e-242, far below float64 underflow when computed
// naively), biometric error rates (FMR, FNMR, EER) and histograms.
package stats

import (
	"fmt"
	"math"
)

// ln10 is the natural log of 10, used for log10 conversions.
const ln10 = 2.302585092994046

// NormTail returns P(Z > z) for a standard normal Z.
func NormTail(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// LogNormTail returns ln P(Z > z), stable for arbitrarily large z where
// the probability itself underflows float64. For z ≤ 8 it evaluates
// directly; beyond that it uses the asymptotic expansion
//
//	P(Z > z) ≈ φ(z)/z · (1 − 1/z² + 3/z⁴ − …)
func LogNormTail(z float64) float64 {
	if z <= 8 {
		p := NormTail(z)
		if p > 0 {
			return math.Log(p)
		}
	}
	// ln φ(z) = −z²/2 − ln√(2π)
	logPhi := -z*z/2 - 0.9189385332046727
	// Mills ratio series: 1 - 1/z² + 3/z⁴ - 15/z⁶.
	z2 := z * z
	series := 1 - 1/z2 + 3/(z2*z2) - 15/(z2*z2*z2)
	return logPhi - math.Log(z) + math.Log(series)
}

// PValue represents a (possibly astronomically small) probability as its
// base-10 logarithm, so values like 5.42e-242 or 1e-500 survive intact.
type PValue struct {
	// Log10 is log₁₀ of the p-value; 0 represents p = 1.
	Log10 float64
}

// String renders the p-value in scientific notation ("5.42e-242"), exact
// even when the value underflows float64.
func (p PValue) String() string {
	if math.IsInf(p.Log10, -1) {
		return "0"
	}
	if p.Log10 >= 0 {
		return "1"
	}
	exp := math.Floor(p.Log10)
	mant := math.Pow(10, p.Log10-exp)
	// Normalize mantissa rounding edge (e.g. 9.999 → 10.0).
	if mant >= 9.995 {
		mant = 1
		exp++
	}
	return fmt.Sprintf("%.2fe%+03.0f", mant, exp)
}

// TwoSidedNormalP returns the two-sided p-value for a z statistic,
// exact in log space for arbitrarily large |z|.
func TwoSidedNormalP(z float64) PValue {
	az := math.Abs(z)
	logP := LogNormTail(az) + math.Ln2
	if logP > 0 {
		logP = 0
	}
	return PValue{Log10: logP / ln10}
}
