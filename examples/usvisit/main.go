// US-VISIT scenario: the paper motivates interoperability with the
// US-VISIT border program, where travellers enroll on one 500-dpi optical
// sensor but may be verified years later on a different device. This
// example enrolls a population on the Cross Match Guardian R2 (D0) and
// verifies everyone on each of the other devices, reporting how the
// genuine score distribution and the false-non-match rate degrade, and
// what a Ross–Nadgir calibration fitted per device pair changes. Both
// matchers are read at equal FMR: each at its own threshold for FMR
// 0.1 % over the same impostor pairs.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"fpinterop/internal/calib"
	"fpinterop/internal/match"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
	"fpinterop/internal/stats"
)

const (
	cohortSize = 120
	trainSize  = 40    // subjects used to fit inter-sensor calibrations
	targetFMR  = 0.001 // the operating point both matchers are read at
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example, printing to w.
func run(w io.Writer) error {
	cohort := population.NewCohort(rng.New(2004), population.CohortOptions{Size: cohortSize})
	enrollDev, _ := sensor.ProfileByID("D0")
	matcher := &match.HoughMatcher{}

	// Enroll everyone at the port of entry.
	gallery := make([]*sensor.Impression, cohortSize)
	for i, s := range cohort.Subjects {
		imp, err := enrollDev.CaptureSubject(s, 0, sensor.CaptureOptions{})
		if err != nil {
			return err
		}
		gallery[i] = imp
	}

	eval := cohortSize - trainSize
	fmt.Fprintf(w, "US-VISIT scenario: %d travellers enrolled on %s\n", cohortSize, enrollDev.Model)
	fmt.Fprintf(w, "FNMR at FMR %.1f%%: %d genuine and %d impostor pairs per probe device;\n",
		100*targetFMR, eval, eval*(eval-1))
	fmt.Fprintf(w, "calibrations fitted on the other %d travellers.\n\n", trainSize)
	fmt.Fprintf(w, "%-6s %-42s %10s %10s %12s\n", "Probe", "Model", "mean score", "FNMR", "FNMR+calib")

	for _, dev := range sensor.Profiles() {
		probes := make([]*sensor.Impression, cohortSize)
		for i, s := range cohort.Subjects {
			imp, err := dev.CaptureSubject(s, 1, sensor.CaptureOptions{SampleIndex: 1})
			if err != nil {
				return err
			}
			probes[i] = imp
		}

		genuine, fnmr, err := evaluate(matcher, gallery, probes)
		if err != nil {
			return err
		}
		calibFNMR := "-"
		if dev.ID != enrollDev.ID {
			var pairs []calib.TemplatePair
			for i := 0; i < trainSize; i++ {
				pairs = append(pairs, calib.TemplatePair{
					Gallery: gallery[i].Template, Probe: probes[i].Template,
				})
			}
			cal, err := calib.FitCalibration(matcher, pairs)
			if err != nil {
				return fmt.Errorf("%s: %w", dev.ID, err)
			}
			_, f, err := evaluate(&calib.CalibratedMatcher{Base: matcher, Cal: cal}, gallery, probes)
			if err != nil {
				return err
			}
			calibFNMR = fmt.Sprintf("%.3f", f)
		}
		fmt.Fprintf(w, "%-6s %-42s %10.2f %10.3f %12s\n",
			dev.ID, dev.Model, stats.Mean(genuine), fnmr, calibFNMR)
	}
	fmt.Fprintln(w, "\nSame-device verification keeps FNMR lowest and ink cards are the worst")
	fmt.Fprintln(w, "probes. At equal FMR, calibration lowers each cross-device FNMR here.")
	return nil
}

// evaluate scores every evaluation traveller's gallery template against
// every evaluation probe and returns the genuine scores and the FNMR at
// the threshold that admits targetFMR of the impostor scores.
func evaluate(m match.Matcher, gallery, probes []*sensor.Impression) ([]float64, float64, error) {
	var genuine, impostor []float64
	for i := trainSize; i < cohortSize; i++ {
		for j := trainSize; j < cohortSize; j++ {
			res, err := m.Match(gallery[i].Template, probes[j].Template)
			if err != nil {
				return nil, 0, err
			}
			if i == j {
				genuine = append(genuine, res.Score)
			} else {
				impostor = append(impostor, res.Score)
			}
		}
	}
	t, err := stats.ThresholdForFMR(impostor, targetFMR)
	if err != nil {
		return nil, 0, err
	}
	return genuine, stats.FNMRAt(genuine, t), nil
}
