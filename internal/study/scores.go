package study

import (
	"fmt"
	"sync/atomic"

	"fpinterop/internal/match"
	"fpinterop/internal/nfiq"
	"fpinterop/internal/par"
	"fpinterop/internal/rng"
)

// Score is one similarity comparison with its full provenance.
type Score struct {
	// SubjectG, SubjectP identify the gallery and probe subjects (equal
	// for genuine comparisons).
	SubjectG, SubjectP int
	// DeviceG, DeviceP are device indices into Dataset.Devices.
	DeviceG, DeviceP int
	// SampleG, SampleP are the sample indices used.
	SampleG, SampleP int
	// QualityG, QualityP are the NFIQ classes of the two impressions.
	QualityG, QualityP nfiq.Class
	// Value is the matcher similarity score.
	Value float64
}

// SameDevice reports whether gallery and probe came from one device.
func (s Score) SameDevice() bool { return s.DeviceG == s.DeviceP }

// ScoreSets holds the four score populations of the paper's Table 2/3.
type ScoreSets struct {
	// DMG: Device Match Genuine — same subject, same live-scan device,
	// first sample enrolls, second verifies (494 × 4 = 1,976).
	DMG []Score
	// DDMG: Diverse Device Match Genuine — same subject, all ordered
	// device pairs X≠Y (494 × 20 = 9,880).
	DDMG []Score
	// DMI: Device Match Impostor — different subjects, same device
	// (random subset, paper size 120,855).
	DMI []Score
	// DDMI: Diverse Device Match Impostor — different subjects, different
	// devices (random subset, paper size 483,420).
	DDMI []Score
	// GenuineAll holds every genuine ordered device pair × sample
	// combination — the denser set the FNMR matrices (Tables 5–6) need
	// for rate resolution.
	GenuineAll []Score
}

// comparison is one queued match job.
type comparison struct {
	subjG, devG, sampG int
	subjP, devP, sampP int
}

// GenerateScores runs every comparison of the study design against the
// dataset's matcher and returns the four score sets. Deterministic given
// the dataset (impostor subsampling is keyed by the study seed) and
// parallelized.
func GenerateScores(ds *Dataset) (*ScoreSets, error) {
	cfg := ds.Config
	nSubj := ds.NumSubjects()
	nDev := ds.NumDevices()
	if nSubj == 0 {
		return nil, fmt.Errorf("study: empty dataset")
	}

	var jobs []comparison
	var kinds []int // parallel: 0=DMG 1=DDMG 2=DMI 3=DDMI 4=GenuineAll

	// DMG: same live-scan device, sample 0 enrolls, sample 1 verifies.
	for s := 0; s < nSubj; s++ {
		for d := 0; d < nDev; d++ {
			if ds.Devices[d].Ink {
				continue
			}
			jobs = append(jobs, comparison{s, d, 0, s, d, 1})
			kinds = append(kinds, 0)
		}
	}
	// DDMG: ordered device pairs X≠Y, sample 0 vs sample 0.
	for s := 0; s < nSubj; s++ {
		for dg := 0; dg < nDev; dg++ {
			for dp := 0; dp < nDev; dp++ {
				if dg == dp {
					continue
				}
				jobs = append(jobs, comparison{s, dg, 0, s, dp, 0})
				kinds = append(kinds, 1)
			}
		}
	}
	// GenuineAll: every ordered device pair (including diagonal) and every
	// sample combination not already covered by identical (gallery, probe)
	// impressions. Used by the FNMR matrices.
	for s := 0; s < nSubj; s++ {
		for dg := 0; dg < nDev; dg++ {
			for dp := 0; dp < nDev; dp++ {
				for sg := 0; sg < SamplesPerDevice; sg++ {
					for sp := 0; sp < SamplesPerDevice; sp++ {
						if dg == dp && sg == sp {
							continue // identical impression
						}
						jobs = append(jobs, comparison{s, dg, sg, s, dp, sp})
						kinds = append(kinds, 4)
					}
				}
			}
		}
	}
	// Impostor subsets: uniform random (device, subject pair) draws keyed
	// by the study seed.
	isrc := rng.New(cfg.Seed).Child("impostor")
	maxDMI := cfg.MaxDMI
	maxDDMI := cfg.MaxDDMI
	if pairLimit := nSubj * (nSubj - 1) * nDev; maxDMI > pairLimit {
		maxDMI = pairLimit
	}
	if pairLimit := nSubj * (nSubj - 1) * nDev * (nDev - 1); maxDDMI > pairLimit {
		maxDDMI = pairLimit
	}
	for i := 0; i < maxDMI; i++ {
		a := isrc.Intn(nSubj)
		b := isrc.Intn(nSubj - 1)
		if b >= a {
			b++
		}
		d := isrc.Intn(nDev)
		jobs = append(jobs, comparison{a, d, 0, b, d, 0})
		kinds = append(kinds, 2)
	}
	for i := 0; i < maxDDMI; i++ {
		a := isrc.Intn(nSubj)
		b := isrc.Intn(nSubj - 1)
		if b >= a {
			b++
		}
		dg := isrc.Intn(nDev)
		dp := isrc.Intn(nDev - 1)
		if dp >= dg {
			dp++
		}
		jobs = append(jobs, comparison{a, dg, 0, b, dp, 0})
		kinds = append(kinds, 3)
	}

	scores := make([]Score, len(jobs))
	// When the study runs the primary matcher, each worker holds one
	// pooled match session for the whole run: the hot path then does
	// zero allocations per comparison (only Score is read, so the
	// session-scoped Result aliasing is safe).
	var sessions []*match.Session
	if _, hough := cfg.Matcher.(*match.HoughMatcher); hough {
		sessions = make([]*match.Session, par.Workers(len(jobs)))
		for w := range sessions {
			sess := match.AcquireSession()
			defer sess.Release()
			sessions[w] = sess
		}
	}
	// A failure does not stop the run: every comparison is attempted, so
	// the count is complete and the lowest failing comparison is named.
	var failed atomic.Int64
	err := par.For(nil, len(jobs), func(w, i int) error {
		j := jobs[i]
		g := ds.Impression(j.subjG, j.devG, j.sampG)
		p := ds.Impression(j.subjP, j.devP, j.sampP)
		var res match.Result
		var err error
		if sessions != nil {
			res, err = sessions[w].Match(g.Template, p.Template)
		} else {
			res, err = cfg.Matcher.Match(g.Template, p.Template)
		}
		if err != nil {
			failed.Add(1)
			return fmt.Errorf("subject %d device %d sample %d vs subject %d device %d sample %d: %w",
				j.subjG, j.devG, j.sampG, j.subjP, j.devP, j.sampP, err)
		}
		scores[i] = Score{
			SubjectG: j.subjG, SubjectP: j.subjP,
			DeviceG: j.devG, DeviceP: j.devP,
			SampleG: j.sampG, SampleP: j.sampP,
			QualityG: g.Quality, QualityP: p.Quality,
			Value: res.Score,
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("study: score generation: %d of %d comparisons failed, first: %w",
			failed.Load(), len(jobs), err)
	}

	sets := &ScoreSets{}
	for i, k := range kinds {
		switch k {
		case 0:
			sets.DMG = append(sets.DMG, scores[i])
		case 1:
			sets.DDMG = append(sets.DDMG, scores[i])
		case 2:
			sets.DMI = append(sets.DMI, scores[i])
		case 3:
			sets.DDMI = append(sets.DDMI, scores[i])
		case 4:
			sets.GenuineAll = append(sets.GenuineAll, scores[i])
		}
	}
	return sets, nil
}

// Values extracts the raw similarity values from a score slice.
func Values(scores []Score) []float64 {
	out := make([]float64, len(scores))
	for i, s := range scores {
		out[i] = s.Value
	}
	return out
}
