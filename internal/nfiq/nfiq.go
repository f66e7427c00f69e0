// Package nfiq implements NIST-NFIQ-style fingerprint quality classes.
// Like the original NFIQ (NISTIR 7151), it reports five quality classes,
// 1 (best) to 5 (worst). The capture model knows each impression's latent
// fidelity and measures its class from that (FromFidelity). The paper
// uses NFIQ to stratify its FNMR analysis (Table 6, Figure 5) and cites
// the NIST recommendation to re-acquire when thumbs or index fingers
// score worse than 3.
package nfiq

import "fmt"

// Class is an NFIQ-style quality level: 1 is the highest quality, 5 the
// poorest.
type Class int

const (
	// Excellent (NFIQ 1).
	Excellent Class = 1
	// VeryGood (NFIQ 2).
	VeryGood Class = 2
	// Good (NFIQ 3).
	Good Class = 3
	// Fair (NFIQ 4).
	Fair Class = 4
	// Poor (NFIQ 5).
	Poor Class = 5
)

// Valid reports whether c is one of the five defined classes.
func (c Class) Valid() bool { return c >= Excellent && c <= Poor }

// String renders the numeric NFIQ level.
func (c Class) String() string { return fmt.Sprintf("NFIQ-%d", int(c)) }

// classThresholds map fidelity onto the five NFIQ classes.
var classThresholds = [4]float64{0.80, 0.65, 0.50, 0.35}

// FromFidelity maps a latent capture fidelity φ ∈ [0, 1] onto an NFIQ
// class: the NFIQ measurement model of the template-level capture path,
// which knows the fidelity of each impression directly.
func FromFidelity(phi float64) Class {
	switch {
	case phi >= classThresholds[0]:
		return Excellent
	case phi >= classThresholds[1]:
		return VeryGood
	case phi >= classThresholds[2]:
		return Good
	case phi >= classThresholds[3]:
		return Fair
	default:
		return Poor
	}
}

// RecaptureRecommended implements the NIST SP 800-76 guidance the paper
// quotes: re-acquire (up to three times) when the quality of thumbs or
// index fingers is worse than NFIQ 3.
func RecaptureRecommended(c Class) bool {
	return c > Good
}
