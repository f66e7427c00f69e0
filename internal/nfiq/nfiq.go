// Package nfiq implements a NIST-NFIQ-like fingerprint image quality
// assessor. Like the original NFIQ (NISTIR 7151), it maps image features
// that predict matcher performance onto five quality classes, 1 (best) to
// 5 (worst). The paper uses NFIQ to stratify its FNMR analysis (Table 6,
// Figure 5) and cites the NIST recommendation to re-acquire when thumbs or
// index fingers score worse than 3.
package nfiq

import (
	"fmt"

	"fpinterop/internal/imgproc"
)

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

// Features are the raw image measurements the classifier consumes,
// mirroring the feature families of NIST NFIQ (orientation certainty,
// ridge clarity, contrast, usable area).
type Features struct {
	// OrientationCertainty is the mean orientation coherence over
	// foreground blocks, in [0, 1].
	OrientationCertainty float64
	// Contrast is the grayscale standard deviation over the foreground.
	Contrast float64
	// ForegroundFraction is the fraction of the image with ridge content.
	ForegroundFraction float64
	// RidgeFrequencyValid is the fraction of foreground blocks whose
	// estimated ridge frequency falls in the plausible band for 500 dpi.
	RidgeFrequencyValid float64
}

// ExtractFeatures measures quality features on a grayscale fingerprint
// image (ridges dark, background light).
func ExtractFeatures(img *imgproc.Image) Features {
	const block = 16
	of := imgproc.EstimateOrientation(img, block)

	var f Features
	fgBlocks, cohSum, freqValid := 0, 0.0, 0
	var fgPix []float64
	for by := 0; by < of.BH; by++ {
		for bx := 0; bx < of.BW; bx++ {
			x0, y0 := bx*block, by*block
			// A block is foreground when it has meaningful dark content.
			sub := img.SubImage(x0, y0, block, block)
			mean, std := sub.MeanStd()
			if mean > 0.93 || std < 0.04 {
				continue // background / blank
			}
			fgBlocks++
			cohSum += of.Coherence[by][bx]
			fgPix = append(fgPix, sub.Pix...)
			freq := imgproc.EstimateFrequency(img, of, x0+block/2, y0+block/2, 32)
			// Plausible ridge period at 500 dpi: 5–16 px.
			if freq > 1.0/16 && freq < 1.0/5 {
				freqValid++
			}
		}
	}
	total := of.BH * of.BW
	if total > 0 {
		f.ForegroundFraction = float64(fgBlocks) / float64(total)
	}
	if fgBlocks > 0 {
		f.OrientationCertainty = cohSum / float64(fgBlocks)
		f.RidgeFrequencyValid = float64(freqValid) / float64(fgBlocks)
	}
	if len(fgPix) > 0 {
		fg := &imgproc.Image{W: len(fgPix), H: 1, Pix: fgPix}
		_, f.Contrast = fg.MeanStd()
	}
	return f
}

// Score combines features into a scalar quality utility in [0, 1]
// (higher is better). Weights follow the relative importance NFIQ's
// feature analysis reports: orientation certainty dominates, then ridge
// frequency validity, contrast and coverage.
func (f Features) Score() float64 {
	contrast := f.Contrast / 0.35 // saturating normalization
	if contrast > 1 {
		contrast = 1
	}
	coverage := f.ForegroundFraction / 0.5
	if coverage > 1 {
		coverage = 1
	}
	s := 0.45*f.OrientationCertainty +
		0.25*f.RidgeFrequencyValid +
		0.15*contrast +
		0.15*coverage
	if s < 0 {
		s = 0
	} else if s > 1 {
		s = 1
	}
	return s
}

// classThresholds map the scalar utility onto the five NFIQ classes.
// Calibrated so that clean synthetic captures score 1–2 and heavily
// degraded ink scans score 4–5.
var classThresholds = [4]float64{0.80, 0.65, 0.50, 0.35}

// ClassFromScore buckets a utility score into an NFIQ class.
func ClassFromScore(s float64) Class {
	switch {
	case s >= classThresholds[0]:
		return Excellent
	case s >= classThresholds[1]:
		return VeryGood
	case s >= classThresholds[2]:
		return Good
	case s >= classThresholds[3]:
		return Fair
	default:
		return Poor
	}
}

// FromFidelity maps a latent capture fidelity φ ∈ [0, 1] onto an NFIQ
// class. The template-level capture path knows the ground-truth fidelity
// of each impression directly; this mapping is the NFIQ measurement model
// for that path (the image path measures instead). The mapping mirrors
// ClassFromScore so the two paths are statistically comparable.
func FromFidelity(phi float64) Class {
	return ClassFromScore(phi)
}

// RecaptureRecommended implements the NIST SP 800-76 guidance the paper
// quotes: re-acquire (up to three times) when the quality of thumbs or
// index fingers is worse than NFIQ 3.
func RecaptureRecommended(c Class) bool {
	return c > Good
}
