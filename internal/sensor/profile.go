// Package sensor models the five capture devices of the study (Table 1):
// four 500-dpi optical live-scan sensors (D0–D3) and scanned ink ten-print
// cards (D4). A Profile carries both the paper's published device metadata
// and the acquisition model parameters that generate device-characteristic
// differences: effective contact area, systematic geometric distortion,
// capture fidelity, and placement repeatability. Capture turns a master
// fingerprint into a minutia template directly; no image is rendered.
//
// Interoperability effects are *emergent*: every device applies its own
// fixed smooth distortion field to the finger geometry, so two impressions
// from the same device share the warp (which therefore cancels in
// matching), while impressions from different devices disagree by the
// relative warp — exactly the mechanism Ross & Nadgir identified and the
// paper measures at scale.
package sensor

import (
	"math"

	"fpinterop/internal/geom"
)

// Profile describes one capture device.
type Profile struct {
	// ID is the paper's device label: "D0".."D4".
	ID string
	// Model is the commercial device name from Table 1.
	Model string
	// DPI is the nominal resolution (500 for every device in the study).
	DPI int
	// ImageW, ImageH are the published image dimensions in pixels
	// (Table 1 metadata, used for reporting).
	ImageW, ImageH int
	// PlatenW, PlatenH are the published capture areas in mm (Table 1).
	PlatenW, PlatenH float64

	// ContactW, ContactH are the effective finger contact window in mm —
	// the part of the pad actually imaged. Large platens are limited by
	// the finger itself; the handheld Seek II (D3) images less; rolled ink
	// prints image more.
	ContactW, ContactH float64
	// BaseFidelity is the device's contribution to capture quality in
	// [0, 1].
	BaseFidelity float64
	// DistortAmp is the amplitude (mm) of the device's systematic smooth
	// distortion field.
	DistortAmp float64
	// ScaleErrX, ScaleErrY are small anisotropic plate scale errors
	// (fraction; 0 = perfectly calibrated).
	ScaleErrX, ScaleErrY float64
	// PlacementSD is the finger placement repeatability in mm.
	PlacementSD float64
	// RotationSD is the placement rotation repeatability in radians.
	RotationSD float64
	// Ink marks the ten-print-card path (rolled impressions, one sample).
	Ink bool

	// distortSeed parameterizes the systematic distortion field.
	distortSeed uint64
}

// profiles are the five study devices. Published metadata follows the
// paper's Table 1; acquisition-model parameters are chosen so the study's
// qualitative results (Tables 4–6) emerge: D0 is the best-behaved sensor,
// D1 slightly noisier, D2 has a larger usable image, D3 a clearly smaller
// contact area, and D4 (ink) is the outlier in both geometry and quality.
var profiles = []*Profile{
	{
		ID: "D0", Model: "Cross Match Guardian R2",
		DPI: 500, ImageW: 800, ImageH: 750, PlatenW: 81, PlatenH: 76,
		ContactW: 16.5, ContactH: 20.5,
		BaseFidelity: 0.97,
		DistortAmp:   0.32, ScaleErrX: 0.002, ScaleErrY: -0.003,
		PlacementSD: 1.1, RotationSD: 0.05,
		distortSeed: 0xd0,
	},
	{
		ID: "D1", Model: "i3 digID Mini",
		DPI: 500, ImageW: 752, ImageH: 750, PlatenW: 81, PlatenH: 76,
		ContactW: 15.5, ContactH: 19.5,
		BaseFidelity: 0.90,
		DistortAmp:   0.55, ScaleErrX: -0.004, ScaleErrY: 0.005,
		PlacementSD: 1.3, RotationSD: 0.06,
		distortSeed: 0xd1,
	},
	{
		ID: "D2", Model: "L1 Identity Solutions TouchPrint 5300",
		DPI: 500, ImageW: 800, ImageH: 750, PlatenW: 81, PlatenH: 76,
		ContactW: 17.0, ContactH: 21.0,
		BaseFidelity: 0.94,
		DistortAmp:   0.45, ScaleErrX: 0.005, ScaleErrY: 0.002,
		PlacementSD: 1.2, RotationSD: 0.05,
		distortSeed: 0xd2,
	},
	{
		ID: "D3", Model: "Cross Match Seek II",
		DPI: 500, ImageW: 800, ImageH: 750, PlatenW: 40.6, PlatenH: 38.1,
		ContactW: 12.5, ContactH: 15.5,
		BaseFidelity: 0.93,
		DistortAmp:   0.50, ScaleErrX: -0.002, ScaleErrY: -0.004,
		PlacementSD: 1.6, RotationSD: 0.08,
		distortSeed: 0xd3,
	},
	{
		ID: "D4", Model: "Ink ten-print card (flat-bed scan)",
		DPI: 500, ImageW: 800, ImageH: 750, PlatenW: 81, PlatenH: 76,
		ContactW: 19.0, ContactH: 23.0, // rolled impressions cover more pad
		BaseFidelity: 0.72,
		DistortAmp:   0.85, ScaleErrX: 0.008, ScaleErrY: -0.007,
		PlacementSD: 1.8, RotationSD: 0.10,
		Ink:         true,
		distortSeed: 0xd4,
	},
}

// Profiles returns the five study devices D0–D4 in order. The slice is
// freshly allocated; the profiles themselves are shared and must not be
// mutated.
func Profiles() []*Profile {
	out := make([]*Profile, len(profiles))
	copy(out, profiles)
	return out
}

// LiveScanProfiles returns only the four live-scan devices D0–D3.
func LiveScanProfiles() []*Profile {
	out := make([]*Profile, 0, 4)
	for _, p := range profiles {
		if !p.Ink {
			out = append(out, p)
		}
	}
	return out
}

// ProfileByID looks a device up by its paper label ("D0".."D4").
func ProfileByID(id string) (*Profile, bool) {
	for _, p := range profiles {
		if p.ID == id {
			return p, true
		}
	}
	return nil, false
}

// Distort maps a point (mm, pad-centred) through the device's systematic
// geometric distortion: a fixed smooth displacement field plus anisotropic
// scale error. The field is a low-frequency sinusoid mixture keyed by the
// device seed — smooth, bounded by DistortAmp, and identical for every
// capture on the device.
func (p *Profile) Distort(pt geom.Point) geom.Point {
	s := p.distortSeed
	// Derive stable pseudo-random phases/wavevectors from the seed.
	f := func(k uint64) float64 {
		x := s ^ k*0x9e3779b97f4a7c15
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 32
		return float64(x%10000)/10000*2 - 1 // [-1, 1]
	}
	// Wavelengths 12–30 mm keep the field smooth across the contact area.
	lx1 := 12 + 9*(f(1)+1)
	ly1 := 12 + 9*(f(2)+1)
	lx2 := 15 + 15*(f(3)+1)/2
	ly2 := 15 + 15*(f(4)+1)/2
	a := p.DistortAmp
	dx := a * (0.6*math.Sin(2*math.Pi*pt.X/lx1+math.Pi*f(5)) +
		0.4*math.Sin(2*math.Pi*pt.Y/ly2+math.Pi*f(6)))
	dy := a * (0.6*math.Sin(2*math.Pi*pt.Y/ly1+math.Pi*f(7)) +
		0.4*math.Sin(2*math.Pi*pt.X/lx2+math.Pi*f(8)))
	return geom.Point{
		X: pt.X*(1+p.ScaleErrX) + dx,
		Y: pt.Y*(1+p.ScaleErrY) + dy,
	}
}

// TemplateSize returns the pixel dimensions of templates captured by this
// device (contact window at device resolution).
func (p *Profile) TemplateSize() (w, h int) {
	pxPerMM := float64(p.DPI) / 25.4
	return int(math.Round(p.ContactW * pxPerMM)), int(math.Round(p.ContactH * pxPerMM))
}
