// Package study orchestrates the paper's experiment: it assembles the
// synthetic data collection (494 participants × 4 live-scan devices × 2
// samples + ink ten-print cards), generates the four similarity score sets
// of Table 2/3 (DMG, DMI, DDMG, DDMI), and computes every table and figure
// of the evaluation — score distributions (Figures 2–4), the Kendall rank
// correlation matrix (Table 4), the interoperability FNMR matrices
// (Tables 5–6), and the quality-conditioned low-score surfaces (Figure 5).
package study

import (
	"fmt"

	"fpinterop/internal/match"
	"fpinterop/internal/par"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// Config parameterizes a study run. The zero value reproduces the paper's
// scale (494 subjects, full impostor subsets); tests shrink it.
type Config struct {
	// Seed makes the whole study a pure function of one number.
	Seed uint64
	// Subjects is the cohort size (default 494).
	Subjects int
	// MaxDMI caps same-device impostor comparisons (default 120,855 —
	// the paper's Table 3 count).
	MaxDMI int
	// MaxDDMI caps cross-device impostor comparisons (default 483,420).
	MaxDDMI int
	// Matcher is the similarity engine (default a zero HoughMatcher, the
	// BioEngine stand-in).
	Matcher match.Matcher
	// MeanMinutiae forwards to master-print generation (default 62).
	MeanMinutiae float64
}

func (c Config) withDefaults() Config {
	if c.Subjects == 0 {
		c.Subjects = 494
	}
	if c.MaxDMI == 0 {
		c.MaxDMI = 120855
	}
	if c.MaxDDMI == 0 {
		c.MaxDDMI = 483420
	}
	if c.Matcher == nil {
		c.Matcher = &match.HoughMatcher{}
	}
	return c
}

// Dataset is the full synthetic data collection: every impression of every
// subject on every device.
type Dataset struct {
	Config  Config
	Cohort  *population.Cohort
	Devices []*sensor.Profile
	// impressions[subject][device] holds the samples captured for that
	// subject on that device (2 for every device; D4's second sample is a
	// re-scan of the same physical card).
	impressions [][][]*sensor.Impression
}

// SamplesPerDevice is how many impressions each subject contributes per
// device: two live-scan placements, or one ink imprint plus one re-scan.
const SamplesPerDevice = 2

// BuildDataset runs the simulated data collection. Captures are
// deterministic (keyed by subject/device/sample) and parallelized across
// subjects; the lowest failing subject's error is the one reported.
func BuildDataset(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	root := rng.New(cfg.Seed)
	cohort := population.NewCohort(root.Child("cohort"), population.CohortOptions{
		Size:         cfg.Subjects,
		MeanMinutiae: cfg.MeanMinutiae,
	})
	devices := sensor.Profiles()
	ds := &Dataset{
		Config:      cfg,
		Cohort:      cohort,
		Devices:     devices,
		impressions: make([][][]*sensor.Impression, len(cohort.Subjects)),
	}

	err := par.For(nil, len(cohort.Subjects), func(_, si int) error {
		subj := cohort.Subjects[si]
		perDevice := make([][]*sensor.Impression, len(devices))
		for di, dev := range devices {
			samples := make([]*sensor.Impression, 0, SamplesPerDevice)
			first, err := dev.CaptureSubject(subj, 0, sensor.CaptureOptions{})
			if err != nil {
				return err
			}
			samples = append(samples, first)
			if dev.Ink {
				re, err := dev.Rescan(first, subj.CaptureSource(dev.ID, 1))
				if err != nil {
					return err
				}
				samples = append(samples, re)
			} else {
				second, err := dev.CaptureSubject(subj, 1, sensor.CaptureOptions{})
				if err != nil {
					return err
				}
				samples = append(samples, second)
			}
			perDevice[di] = samples
		}
		ds.impressions[si] = perDevice
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("study: dataset build: %w", err)
	}
	return ds, nil
}

// Impression returns the sample-th impression of a subject on a device
// index (0–4).
func (ds *Dataset) Impression(subject, device, sample int) *sensor.Impression {
	return ds.impressions[subject][device][sample]
}

// NumSubjects returns the cohort size.
func (ds *Dataset) NumSubjects() int { return len(ds.impressions) }

// NumDevices returns the device count (5).
func (ds *Dataset) NumDevices() int { return len(ds.Devices) }

// DeviceIndex maps a device ID ("D0".."D4") to its index.
func (ds *Dataset) DeviceIndex(id string) (int, bool) {
	for i, d := range ds.Devices {
		if d.ID == id {
			return i, true
		}
	}
	return 0, false
}
