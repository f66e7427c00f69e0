package sensor

import (
	"fmt"
	"math"

	"fpinterop/internal/geom"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/nfiq"
	"fpinterop/internal/population"
	"fpinterop/internal/ridge"
	"fpinterop/internal/rng"
)

// Impression is one capture event: a minutiae template plus the capture
// metadata the study needs.
type Impression struct {
	// DeviceID is the capturing device ("D0".."D4").
	DeviceID string
	// SubjectID identifies the participant.
	SubjectID int
	// Sample is the sample index on this device (0 or 1; ink has only 0).
	Sample int
	// Window is the region of the master pad captured, in mm (pre-warp).
	Window geom.Rect
	// Fidelity is the latent capture fidelity in [0, 1] that drove the
	// degradation model (ground truth, not observable by a real system).
	Fidelity float64
	// Quality is the NFIQ class measured for this impression.
	Quality nfiq.Class
	// Template is the extracted minutiae template in window pixel
	// coordinates at the device DPI.
	Template *minutiae.Template
}

// CaptureOptions tunes a capture event.
type CaptureOptions struct {
	// SampleIndex is which sample this is (habituation improves later
	// samples slightly).
	SampleIndex int
}

// habituationGain is the fidelity bonus per prior sample (the paper
// lists habituation as a future-work axis).
const habituationGain = 0.015

// Capture simulates one template-level acquisition of the master print on
// this device: placement, fidelity realization, systematic + elastic
// distortion, minutiae dropout/spurious generation, measurement noise, and
// quality assessment. All randomness comes from src.
func (p *Profile) Capture(master *ridge.Master, traits population.Traits, src *rng.Source, opts CaptureOptions) (*Impression, error) {
	if master == nil {
		return nil, fmt.Errorf("sensor: nil master fingerprint")
	}

	// --- Placement: window centre jitters around the pad centre; poor
	// cooperation and handheld devices jitter more.
	jitterSD := p.PlacementSD * (1.6 - 0.75*traits.Cooperation)
	center := geom.Point{
		X: src.NormMS(0, jitterSD),
		Y: src.NormMS(0, jitterSD),
	}
	window := geom.CenteredRect(center, p.ContactW, p.ContactH)
	rotation := src.NormMS(0, p.RotationSD*(1.5-0.6*traits.Cooperation))

	// --- Latent capture fidelity: subject physiology × device quality ×
	// per-capture condition noise + habituation.
	skin := 0.45*traits.SkinMoisture + 0.30*traits.RidgeDefinition + 0.25*traits.SkinElasticity
	phi := 0.15 + 0.62*skin + 0.28*(p.BaseFidelity-0.7)/0.3*0.5
	phi += float64(opts.SampleIndex) * habituationGain
	phi += src.NormMS(0, 0.07)
	if p.Ink {
		phi -= 0.10 // ink smudge/over-rolling penalty beyond BaseFidelity
	}
	phi = clamp01(phi)

	// --- Geometric chain: master mm → placement rotation → device
	// systematic distortion → elastic pressure distortion.
	pressAmp := (1 - traits.SkinElasticity) * 0.22 // mm
	pressPhaseX := src.Float64() * 2 * math.Pi
	pressPhaseY := src.Float64() * 2 * math.Pi
	elastic := func(pt geom.Point) geom.Point {
		return geom.Point{
			X: pt.X + pressAmp*math.Sin(2*math.Pi*pt.Y/14+pressPhaseX),
			Y: pt.Y + pressAmp*math.Sin(2*math.Pi*pt.X/16+pressPhaseY),
		}
	}
	rot := geom.Rigid{Theta: rotation, S: 1}

	// --- Measurement noise scales inversely with fidelity.
	posNoise := 0.05 + (1-phi)*0.28 // mm
	angNoise := 0.03 + (1-phi)*0.30 // rad

	// --- Minutiae survival: high-prominence features survive poor
	// captures; low-prominence ones vanish first.
	w, h := p.TemplateSize()
	pxPerMM := float64(p.DPI) / 25.4
	tpl := &minutiae.Template{Width: w, Height: h, DPI: p.DPI}
	for _, gt := range master.Minutiae {
		// Placement rotation about the window centre.
		pt := rot.Apply(gt.Pos.Sub(center)).Add(center)
		if !window.Contains(pt) {
			continue
		}
		// Survival probability: base detection rate rises with fidelity;
		// prominence shields features.
		pDetect := 0.55 + 0.44*phi
		pDetect *= 0.55 + 0.45*gt.Prominence
		if !src.Bool(clamp01(pDetect + 0.15)) {
			continue
		}
		warped := elastic(p.Distort(pt))
		warped = geom.Point{
			X: warped.X + src.NormMS(0, posNoise),
			Y: warped.Y + src.NormMS(0, posNoise),
		}
		angle := gt.Angle + rotation + src.NormMS(0, angNoise)
		// Type misclassification happens on faint features.
		kind := gt.Kind
		if src.Bool(0.04 + 0.18*(1-phi)) {
			if kind == minutiae.Ending {
				kind = minutiae.Bifurcation
			} else {
				kind = minutiae.Ending
			}
		}
		x := (warped.X - window.MinX) * pxPerMM
		y := (window.MaxY - warped.Y) * pxPerMM // y flips into image space
		if x < 0 || x >= float64(w) || y < 0 || y >= float64(h) {
			continue
		}
		tpl.Minutiae = append(tpl.Minutiae, minutiae.Minutia{
			X: x, Y: y,
			Angle:   minutiae.NormalizeAngle(-(angle)), // image y-flip negates angles
			Kind:    kind,
			Quality: uint8(30 + 65*phi*gt.Prominence),
		})
	}

	// --- Spurious minutiae: scratches, dryness breaks, ink blobs.
	lambda := 1.0 + 9.0*(1-phi)*(1-phi)
	if p.Ink {
		lambda *= 1.6
	}
	nSpurious := src.Poisson(lambda)
	for i := 0; i < nSpurious; i++ {
		kind := minutiae.Ending
		if src.Bool(0.5) {
			kind = minutiae.Bifurcation
		}
		tpl.Minutiae = append(tpl.Minutiae, minutiae.Minutia{
			X:       src.Float64() * float64(w),
			Y:       src.Float64() * float64(h),
			Angle:   src.Float64() * 2 * math.Pi,
			Kind:    kind,
			Quality: uint8(20 + src.Intn(30)),
		})
	}

	// --- Quality measurement: NFIQ responds to the same latent fidelity
	// with measurement noise.
	q := nfiq.FromFidelity(clamp01(phi + src.NormMS(0, 0.05)))

	imp := &Impression{
		DeviceID:  p.ID,
		Sample:    opts.SampleIndex,
		Window:    window,
		Fidelity:  phi,
		Quality:   q,
		Template:  tpl,
		SubjectID: -1, // filled by the caller when known
	}
	if err := tpl.Validate(); err != nil {
		return nil, fmt.Errorf("sensor: capture produced invalid template: %w", err)
	}
	return imp, nil
}

// CaptureSubject captures one sample of a study subject on this device,
// wiring subject traits, keyed randomness and metadata.
func (p *Profile) CaptureSubject(s *population.Subject, sample int, opts CaptureOptions) (*Impression, error) {
	opts.SampleIndex = sample
	src := s.CaptureSource(p.ID, sample)
	imp, err := p.Capture(s.Master(), s.Traits, src, opts)
	if err != nil {
		return nil, fmt.Errorf("subject %d on %s sample %d: %w", s.ID, p.ID, sample, err)
	}
	imp.SubjectID = s.ID
	return imp, nil
}

// CaptureFinger captures an arbitrary finger of a subject (the paper's
// study uses the right index; multi-finger fusion — future-work bullet 5
// — needs the rest). Randomness is keyed by (device, finger, sample) so
// fingers have independent capture conditions.
func (p *Profile) CaptureFinger(s *population.Subject, finger population.Finger, sample int, opts CaptureOptions) (*Impression, error) {
	master, err := s.Finger(finger)
	if err != nil {
		return nil, fmt.Errorf("sensor: capture finger: %w", err)
	}
	opts.SampleIndex = sample
	src := s.CaptureSource(p.ID+"/"+finger.String(), sample)
	imp, err := p.Capture(master, s.Traits, src, opts)
	if err != nil {
		return nil, fmt.Errorf("subject %d finger %s on %s sample %d: %w",
			s.ID, finger, p.ID, sample, err)
	}
	imp.SubjectID = s.ID
	return imp, nil
}

// Rescan simulates digitizing the same physical impression again — the
// ten-print-card scenario where only one ink imprint exists but the card
// can be scanned repeatedly. The ridge geometry on paper is fixed, so the
// result is the original template perturbed only by fresh scanner noise:
// tiny positional/angular jitter and occasional re-detection differences.
// This is why the paper's Table 5 reports its *lowest* FNMR on the D4–D4
// diagonal despite ink being the worst-quality modality.
func (p *Profile) Rescan(imp *Impression, src *rng.Source) (*Impression, error) {
	if imp == nil || imp.Template == nil {
		return nil, fmt.Errorf("sensor: rescan of nil impression")
	}
	out := &Impression{
		DeviceID:  imp.DeviceID,
		SubjectID: imp.SubjectID,
		Sample:    imp.Sample + 1,
		Window:    imp.Window,
		Fidelity:  imp.Fidelity,
		Quality:   imp.Quality,
		Template:  imp.Template.Clone(),
	}
	w, h := float64(out.Template.Width), float64(out.Template.Height)
	kept := out.Template.Minutiae[:0]
	for _, m := range out.Template.Minutiae {
		// Re-detection: a faint feature occasionally flips in or out.
		if src.Bool(0.02) {
			continue
		}
		m.X += src.NormMS(0, 0.6)
		m.Y += src.NormMS(0, 0.6)
		m.Angle = minutiae.NormalizeAngle(m.Angle + src.NormMS(0, 0.02))
		if m.X < 0 || m.X >= w || m.Y < 0 || m.Y >= h {
			continue
		}
		kept = append(kept, m)
	}
	out.Template.Minutiae = kept
	// Scanner noise barely moves measured quality.
	q := int(out.Quality)
	if src.Bool(0.1) {
		q += src.Intn(3) - 1
	}
	if q < 1 {
		q = 1
	} else if q > 5 {
		q = 5
	}
	out.Quality = nfiq.Class(q)
	if err := out.Template.Validate(); err != nil {
		return nil, fmt.Errorf("sensor: rescan produced invalid template: %w", err)
	}
	return out, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
