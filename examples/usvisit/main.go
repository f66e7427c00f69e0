// US-VISIT scenario: the paper motivates interoperability with the
// US-VISIT border program, where travellers enroll on one 500-dpi optical
// sensor but may be verified years later on a different device. This
// example enrolls a population on the Cross Match Guardian R2 (D0) and
// verifies everyone on each of the other devices, reporting how the
// genuine score distribution and the false-non-match rate degrade — and
// how much a Ross–Nadgir calibration recovers.
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
	trainSize  = 40 // subjects used to fit inter-sensor calibrations
	threshold  = 7.0
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

	fmt.Fprintf(w, "US-VISIT scenario: %d travellers enrolled on %s\n\n", cohortSize, enrollDev.Model)
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

		// Plain verification on the evaluation split.
		var scores []float64
		for i := trainSize; i < cohortSize; i++ {
			res, err := matcher.Match(gallery[i].Template, probes[i].Template)
			if err != nil {
				return err
			}
			scores = append(scores, res.Score)
		}
		fnmr := stats.FNMRAt(scores, threshold)

		// Calibrated verification (cross-device only): fit the
		// inter-sensor warp on the training split.
		calibFNMR := fnmr
		if dev.ID != enrollDev.ID {
			var pairs []calib.TemplatePair
			for i := 0; i < trainSize; i++ {
				pairs = append(pairs, calib.TemplatePair{
					Gallery: gallery[i].Template, Probe: probes[i].Template,
				})
			}
			cal, err := calib.FitCalibration(matcher, pairs, calib.CalibrationOptions{})
			if err != nil {
				fmt.Fprintf(w, "%s: calibration failed: %v\n", dev.ID, err)
			} else {
				cm := &calib.CalibratedMatcher{Base: matcher, Cal: cal}
				var calScores []float64
				for i := trainSize; i < cohortSize; i++ {
					res, err := cm.Match(gallery[i].Template, probes[i].Template)
					if err != nil {
						return err
					}
					calScores = append(calScores, res.Score)
				}
				calibFNMR = stats.FNMRAt(calScores, threshold)
			}
		}
		fmt.Fprintf(w, "%-6s %-42s %10.2f %10.3f %12.3f\n",
			dev.ID, dev.Model, stats.Mean(scores), fnmr, calibFNMR)
	}
	fmt.Fprintln(w, "\nSame-device verification keeps FNMR lowest; ink cards are the")
	fmt.Fprintln(w, "worst probes, and calibration recovers part of the cross-device loss.")
	return nil
}
