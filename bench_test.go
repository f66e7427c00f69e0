package fpinterop

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. Each benchmark prints its artifact once (so `go test
// -bench=.` output contains the same rows/series the paper reports) and
// then times the analysis computation.
//
// The shared dataset is built once per process at paper scale — 494
// subjects, 120,855 DMI and 483,420 DDMI comparisons (~660k matches) —
// which takes a couple of minutes on one core. Set FPINTEROP_BENCH_SUBJECTS
// (and optionally FPINTEROP_BENCH_DMI / FPINTEROP_BENCH_DDMI) to shrink it
// for quick runs.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fpinterop/internal/calib"
	"fpinterop/internal/gallery"
	"fpinterop/internal/index"
	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/nfiq"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
	"fpinterop/internal/shard"
	"fpinterop/internal/stats"
	"fpinterop/internal/study"
)

var (
	benchOnce sync.Once
	benchDS   *study.Dataset
	benchSets *study.ScoreSets
	benchErr  error

	printOnce = map[string]*sync.Once{}
	printMu   sync.Mutex
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func benchStudy(b *testing.B) (*study.Dataset, *study.ScoreSets) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := study.Config{
			Seed:     2013,
			Subjects: envInt("FPINTEROP_BENCH_SUBJECTS", 494),
			MaxDMI:   envInt("FPINTEROP_BENCH_DMI", 120855),
			MaxDDMI:  envInt("FPINTEROP_BENCH_DDMI", 483420),
		}
		fmt.Printf("[bench] building study: %d subjects, %d DMI, %d DDMI...\n",
			cfg.Subjects, cfg.MaxDMI, cfg.MaxDDMI)
		benchDS, benchErr = study.BuildDataset(cfg)
		if benchErr != nil {
			return
		}
		benchSets, benchErr = study.GenerateScores(benchDS)
		if benchErr == nil {
			fmt.Printf("[bench] study ready.\n")
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS, benchSets
}

// printArtifact prints a rendered table/figure exactly once per process.
func printArtifact(key, text string) {
	printMu.Lock()
	once, ok := printOnce[key]
	if !ok {
		once = &sync.Once{}
		printOnce[key] = once
	}
	printMu.Unlock()
	once.Do(func() { fmt.Println(text) })
}

// BenchmarkTable1DeviceProfiles regenerates Table 1 (device metadata).
func BenchmarkTable1DeviceProfiles(b *testing.B) {
	ds, _ := benchStudy(b)
	printArtifact("table1", study.RenderTable1(ds))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = study.RenderTable1(ds)
	}
}

// BenchmarkFigure1Demographics regenerates Figure 1 (cohort demographics).
func BenchmarkFigure1Demographics(b *testing.B) {
	ds, _ := benchStudy(b)
	printArtifact("figure1", study.RenderFigure1(study.Figure1(ds)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = study.Figure1(ds)
	}
}

// BenchmarkTable3ScoreCounts regenerates Table 3 (score-set sizes: DMG
// 1,976; DDMG 9,880; DMI 120,855; DDMI 483,420 at paper scale).
func BenchmarkTable3ScoreCounts(b *testing.B) {
	_, sets := benchStudy(b)
	printArtifact("table3", study.RenderTable3(study.Table3(sets)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = study.Table3(sets)
	}
}

// BenchmarkFigure2OrderedGenuine regenerates Figure 2 (ordered DDMG
// curves per probe device against the Seek II gallery).
func BenchmarkFigure2OrderedGenuine(b *testing.B) {
	ds, sets := benchStudy(b)
	f, err := study.Figure2(ds, sets, "D3")
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("figure2", study.RenderFigure2(f))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Figure2(ds, sets, "D3"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3SameDeviceHistogram regenerates Figure 3 (DMG vs DMI
// histograms on the Cross Match Guardian R2).
func BenchmarkFigure3SameDeviceHistogram(b *testing.B) {
	ds, sets := benchStudy(b)
	f, err := study.Figure3(ds, sets, "D0")
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("figure3", study.RenderFigureHist("Figure 3: DMG and DMI histograms", f))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Figure3(ds, sets, "D0"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4CrossDeviceHistogram regenerates Figure 4 (DDMG vs DDMI
// histograms, Guardian R2 gallery vs digID Mini probes).
func BenchmarkFigure4CrossDeviceHistogram(b *testing.B) {
	ds, sets := benchStudy(b)
	f, err := study.Figure4(ds, sets, "D0", "D1")
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("figure4", study.RenderFigureHist("Figure 4: DDMG and DDMI histograms", f))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Figure4(ds, sets, "D0", "D1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4KendallMatrix regenerates Table 4 (Kendall rank
// correlation p-values; diagonal ≈ e-242 at paper scale).
func BenchmarkTable4KendallMatrix(b *testing.B) {
	ds, sets := benchStudy(b)
	t4, err := study.Table4(ds, sets)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("table4", study.RenderTable4(t4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Table4(ds, sets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5FNMRMatrix regenerates Table 5 (interoperability FNMR
// matrix at FMR 0.01%).
func BenchmarkTable5FNMRMatrix(b *testing.B) {
	ds, sets := benchStudy(b)
	m, err := study.FNMRMatrix(ds, sets, study.FNMRMatrixOptions{TargetFMR: 0.0001})
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("table5", study.RenderFNMRMatrix("Table 5: Interoperability FNMR matrix", m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.FNMRMatrix(ds, sets, study.FNMRMatrixOptions{TargetFMR: 0.0001}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6QualityFNMR regenerates Table 6 (FNMR matrix at FMR 0.1%
// restricted to NFIQ quality better than 3).
func BenchmarkTable6QualityFNMR(b *testing.B) {
	ds, sets := benchStudy(b)
	opts := study.FNMRMatrixOptions{TargetFMR: 0.001, MaxQuality: nfiq.Good}
	m, err := study.FNMRMatrix(ds, sets, opts)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("table6", study.RenderFNMRMatrix("Table 6: FNMR matrix, NFIQ quality < 3", m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.FNMRMatrix(ds, sets, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5QualitySurface regenerates Figure 5 (low genuine scores
// by quality pair, same-device vs diverse-device surfaces).
func BenchmarkFigure5QualitySurface(b *testing.B) {
	_, sets := benchStudy(b)
	printArtifact("figure5", study.RenderFigure5(study.Figure5(sets)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = study.Figure5(sets)
	}
}

// BenchmarkDatasetBuild measures the simulated data collection itself at
// a reduced cohort size (the paper-scale build is timed once by the
// shared setup).
func BenchmarkDatasetBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := study.BuildDataset(study.Config{Seed: 1, Subjects: 10, MaxDMI: 1, MaxDDMI: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreGeneration measures match throughput on a small study.
func BenchmarkScoreGeneration(b *testing.B) {
	ds, err := study.BuildDataset(study.Config{Seed: 1, Subjects: 10, MaxDMI: 100, MaxDDMI: 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.GenerateScores(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// fnmrAtFMR is FNMR at the threshold that admits the fraction fmr of
// the impostor scores: the paper's way of comparing two scoring methods,
// each at its own threshold.
func fnmrAtFMR(b *testing.B, genuine, impostor []float64, fmr float64) float64 {
	b.Helper()
	t, err := stats.ThresholdForFMR(impostor, fmr)
	if err != nil {
		b.Fatal(err)
	}
	return stats.FNMRAt(genuine, t)
}

// scoreAllPairs scores every gallery template against every probe with
// each matcher: pairs at equal indices are genuine, the rest impostor.
// genuine[k] and impostor[k] are matcher k's scores.
func scoreAllPairs(b *testing.B, ms []match.Matcher, gallery, probes []*minutiae.Template) (genuine, impostor [][]float64) {
	b.Helper()
	genuine = make([][]float64, len(ms))
	impostor = make([][]float64, len(ms))
	for i, g := range gallery {
		for j, p := range probes {
			for k, m := range ms {
				r, err := m.Match(g, p)
				if err != nil {
					b.Fatal(err)
				}
				if i == j {
					genuine[k] = append(genuine[k], r.Score)
				} else {
					impostor[k] = append(impostor[k], r.Score)
				}
			}
		}
	}
	return genuine, impostor
}

// BenchmarkAblationMatcherDiversity contrasts the primary matcher with
// the simpler baseline on the same cross-device pairs — the "diverse
// matchers" axis of the paper's further work. Each matcher's FNMR is
// read at its own threshold for FMR 1 % over the sub-cohort's
// cross-subject impostor pairs.
func BenchmarkAblationMatcherDiversity(b *testing.B) {
	ds, _ := benchStudy(b)
	n := ds.NumSubjects()
	if n > 60 {
		n = 60
	}
	var gal, probes []*minutiae.Template
	for s := 0; s < n; s++ {
		gal = append(gal, ds.Impression(s, 0, 0).Template)
		probes = append(probes, ds.Impression(s, 1, 0).Template)
	}
	matchers := []match.Matcher{&match.HoughMatcher{}, &match.GreedyMatcher{}}
	genuine, impostor := scoreAllPairs(b, matchers, gal, probes)
	printArtifact("ablation-matcher", fmt.Sprintf(
		"Ablation: matcher diversity on D0->D1 (genuine n=%d, impostor n=%d)\n"+
			"  Hough (BioEngine-like): mean genuine %.2f, FNMR@FMR1%% %.3f\n"+
			"  Greedy baseline:        mean genuine %.2f, FNMR@FMR1%% %.3f",
		len(genuine[0]), len(impostor[0]),
		stats.Mean(genuine[0]), fnmrAtFMR(b, genuine[0], impostor[0], 0.01),
		stats.Mean(genuine[1]), fnmrAtFMR(b, genuine[1], impostor[1], 0.01)))
	hough := matchers[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := ds.Impression(i%n, 0, 0).Template
		p := ds.Impression(i%n, 1, 0).Template
		if _, err := hough.Match(g, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCalibration measures what the Ross–Nadgir TPS
// calibration changes on cross-device verification (D0 gallery, D1
// probes): fitted on half the sub-cohort, read on the other half at
// equal FMR, each matcher at its own thresholds for FMR 1 % and 0.1 %
// over the evaluation half's cross-subject impostor pairs.
func BenchmarkAblationCalibration(b *testing.B) {
	ds, _ := benchStudy(b)
	n := ds.NumSubjects()
	if n > 80 {
		n = 80
	}
	train := n / 2
	base := &match.HoughMatcher{}
	var pairs []calib.TemplatePair
	for s := 0; s < train; s++ {
		pairs = append(pairs, calib.TemplatePair{
			Gallery: ds.Impression(s, 0, 0).Template,
			Probe:   ds.Impression(s, 1, 0).Template,
		})
	}
	cal, err := calib.FitCalibration(base, pairs)
	if err != nil {
		b.Fatal(err)
	}
	cm := &calib.CalibratedMatcher{Base: base, Cal: cal}
	var gal, probes []*minutiae.Template
	for s := train; s < n; s++ {
		gal = append(gal, ds.Impression(s, 0, 0).Template)
		probes = append(probes, ds.Impression(s, 1, 0).Template)
	}
	genuine, impostor := scoreAllPairs(b, []match.Matcher{base, cm}, gal, probes)
	printArtifact("ablation-calibration", fmt.Sprintf(
		"Ablation: Ross-Nadgir calibration on D0->D1 (train %d; eval genuine n=%d, impostor n=%d)\n"+
			"  plain:      mean genuine %.2f, FNMR@FMR1%% %.3f, FNMR@FMR0.1%% %.3f\n"+
			"  calibrated: mean genuine %.2f, FNMR@FMR1%% %.3f, FNMR@FMR0.1%% %.3f",
		train, len(genuine[0]), len(impostor[0]),
		stats.Mean(genuine[0]), fnmrAtFMR(b, genuine[0], impostor[0], 0.01), fnmrAtFMR(b, genuine[0], impostor[0], 0.001),
		stats.Mean(genuine[1]), fnmrAtFMR(b, genuine[1], impostor[1], 0.01), fnmrAtFMR(b, genuine[1], impostor[1], 0.001)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := train + i%(n-train)
		if _, err := cm.Match(ds.Impression(s, 0, 0).Template, ds.Impression(s, 1, 0).Template); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHabituation quantifies the habituation future-work
// bullet: quality and genuine scores of first vs second samples.
func BenchmarkAblationHabituation(b *testing.B) {
	ds, sets := benchStudy(b)
	var q0, q1, n0, n1 int
	for s := 0; s < ds.NumSubjects(); s++ {
		for d := 0; d < 4; d++ {
			q0 += int(ds.Impression(s, d, 0).Quality)
			n0++
			q1 += int(ds.Impression(s, d, 1).Quality)
			n1++
		}
	}
	printArtifact("ablation-habituation", fmt.Sprintf(
		"Ablation: habituation (live-scan samples)\n"+
			"  mean NFIQ sample 0: %.3f\n  mean NFIQ sample 1: %.3f (lower is better)",
		float64(q0)/float64(n0), float64(q1)/float64(n1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = study.Figure5(sets)
	}
}

// BenchmarkAblationQualityNorm measures Poh-style quality-conditioned
// score normalization against raw thresholds.
func BenchmarkAblationQualityNorm(b *testing.B) {
	_, sets := benchStudy(b)
	var training []calib.ScoredComparison
	for _, s := range sets.DMI {
		training = append(training, calib.ScoredComparison{
			Score: s.Value, QualityG: s.QualityG, QualityP: s.QualityP,
		})
	}
	for _, s := range sets.DDMI {
		training = append(training, calib.ScoredComparison{
			Score: s.Value, QualityG: s.QualityG, QualityP: s.QualityP,
		})
	}
	qn, err := calib.FitQualityNorm(training, 30)
	if err != nil {
		b.Fatal(err)
	}
	// Normalized genuine/impostor separation vs raw.
	var rawG, rawI, normG, normI []float64
	for _, s := range sets.DDMG {
		rawG = append(rawG, s.Value)
		normG = append(normG, qn.Normalize(s.Value, s.QualityG, s.QualityP))
	}
	for _, s := range sets.DDMI {
		rawI = append(rawI, s.Value)
		normI = append(normI, qn.Normalize(s.Value, s.QualityG, s.QualityP))
	}
	d := func(g, i []float64) float64 {
		sg, si := stats.StdDev(g), stats.StdDev(i)
		return (stats.Mean(g) - stats.Mean(i)) / (sg + si + 1e-9)
	}
	printArtifact("ablation-qualitynorm", fmt.Sprintf(
		"Ablation: quality-conditioned score normalization (cross-device)\n"+
			"  raw separation (d'):        %.3f\n"+
			"  normalized separation (d'): %.3f",
		d(rawG, rawI), d(normG, normI)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = qn.Normalize(5, nfiq.Good, nfiq.Fair)
	}
}

// BenchmarkCaptureTemplatePath measures template-level capture throughput.
func BenchmarkCaptureTemplatePath(b *testing.B) {
	ds, _ := benchStudy(b)
	subj := ds.Cohort.Subjects[0]
	d0, _ := sensor.ProfileByID("D0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d0.CaptureSubject(subj, i%2, sensor.CaptureOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDistortionSweep sweeps the device-characteristic
// distortion amplitude — the design knob DESIGN.md identifies as the
// mechanism behind interoperability loss — and reports how cross-device
// genuine scores respond. At zero relative warp the cross-device penalty
// should largely vanish; it should grow monotonically with amplitude.
func BenchmarkAblationDistortionSweep(b *testing.B) {
	ds, _ := benchStudy(b)
	n := ds.NumSubjects()
	if n > 40 {
		n = 40
	}
	base, _ := sensor.ProfileByID("D1")
	matcher := &match.HoughMatcher{}
	var lines []string
	for _, scale := range []float64{0, 0.5, 1, 2} {
		// Copy the probe device and rescale its systematic warp.
		dev := *base
		dev.DistortAmp = base.DistortAmp * scale
		var scores []float64
		for s := 0; s < n; s++ {
			subj := ds.Cohort.Subjects[s]
			imp, err := dev.CaptureSubject(subj, 0, sensor.CaptureOptions{})
			if err != nil {
				b.Fatal(err)
			}
			g := ds.Impression(s, 0, 0) // D0 gallery
			res, err := matcher.Match(g.Template, imp.Template)
			if err != nil {
				b.Fatal(err)
			}
			scores = append(scores, res.Score)
		}
		lines = append(lines, fmt.Sprintf("  amp x%.1f: mean %.2f, FNMR@7 %.3f",
			scale, stats.Mean(scores), stats.FNMRAt(scores, 7)))
	}
	printArtifact("ablation-distortion", "Ablation: D1 distortion amplitude vs D0-gallery genuine scores\n"+
		strings.Join(lines, "\n"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subj := ds.Cohort.Subjects[i%n]
		if _, err := base.CaptureSubject(subj, 0, sensor.CaptureOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionTwoFingerFusion quantifies the paper's final
// further-work bullet: using more than one finger per participant to
// improve the error rates. Cross-device verification (D0 gallery, D1
// probes) with right index + right middle, fused with the sum rule.
// Impostor pairs (every gallery subject against every other subject's
// probes) are fused the same way, and each method's FNMR is read at its
// own threshold for FMR 1 %.
func BenchmarkExtensionTwoFingerFusion(b *testing.B) {
	ds, _ := benchStudy(b)
	n := ds.NumSubjects()
	if n > 50 {
		n = 50
	}
	d0, _ := sensor.ProfileByID("D0")
	d1, _ := sensor.ProfileByID("D1")
	matcher := &match.HoughMatcher{}
	fingers := []population.Finger{population.RightIndex, population.RightMiddle}
	// Per finger: every subject's D0 gallery and D1 probe, then every
	// pair's score. Both fingers list their pairs in the same order, so
	// index i of each is one pair of subjects.
	var genuine, impostor [2][]float64
	for f, finger := range fingers {
		var gal, probes []*minutiae.Template
		for s := 0; s < n; s++ {
			subj := ds.Cohort.Subjects[s]
			g, err := d0.CaptureFinger(subj, finger, 0, sensor.CaptureOptions{})
			if err != nil {
				b.Fatal(err)
			}
			p, err := d1.CaptureFinger(subj, finger, 1, sensor.CaptureOptions{})
			if err != nil {
				b.Fatal(err)
			}
			gal = append(gal, g.Template)
			probes = append(probes, p.Template)
		}
		gen, imp := scoreAllPairs(b, []match.Matcher{matcher}, gal, probes)
		genuine[f], impostor[f] = gen[0], imp[0]
	}
	fuse := func(byFinger [2][]float64) []float64 {
		out := make([]float64, len(byFinger[0]))
		for i := range out {
			out[i] = calib.FuseSum([]float64{byFinger[0][i], byFinger[1][i]})
		}
		return out
	}
	fusedGen, fusedImp := fuse(genuine), fuse(impostor)
	printArtifact("extension-twofinger", fmt.Sprintf(
		"Extension: two-finger sum-rule fusion, D0 gallery -> D1 probes (genuine n=%d, impostor n=%d)\n"+
			"  single finger: mean genuine %.2f, FNMR@FMR1%% %.3f\n"+
			"  two fingers:   mean genuine %.2f, FNMR@FMR1%% %.3f",
		len(genuine[0]), len(impostor[0]),
		stats.Mean(genuine[0]), fnmrAtFMR(b, genuine[0], impostor[0], 0.01),
		stats.Mean(fusedGen), fnmrAtFMR(b, fusedGen, fusedImp, 0.01)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subj := ds.Cohort.Subjects[i%n]
		if _, err := d1.CaptureFinger(subj, population.RightMiddle, 0, sensor.CaptureOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionIdentificationCMC measures closed-set identification
// across device pairs — the US-VISIT 1:N workload (O(n²) matches, so it
// runs on a sub-cohort).
func BenchmarkExtensionIdentificationCMC(b *testing.B) {
	ds, _ := benchStudy(b)
	n := ds.NumSubjects()
	if n > 60 {
		n = 60
	}
	var results []study.IdentificationResult
	for _, probeID := range []string{"D0", "D1", "D4"} {
		r, err := study.Identification(ds, "D0", probeID, n, 5)
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, r)
	}
	printArtifact("extension-cmc", study.RenderIdentification(results))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Identification(ds, "D0", "D1", 10, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionShift prints the Mann-Whitney distribution-shift test
// of DMG vs DDMG per gallery device.
func BenchmarkExtensionShift(b *testing.B) {
	ds, sets := benchStudy(b)
	a, err := study.Shift(ds, sets)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("extension-shift", study.RenderShift(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Shift(ds, sets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionEERMatrix prints the per-device-pair equal error
// rates, mirroring the Ross & Jain cross-sensor EER comparison.
func BenchmarkExtensionEERMatrix(b *testing.B) {
	ds, sets := benchStudy(b)
	m, err := study.EERMatrix(ds, sets)
	if err != nil {
		b.Fatal(err)
	}
	printArtifact("extension-eer", study.RenderEERMatrix(m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.EERMatrix(ds, sets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionQualityByDevice prints the per-device NFIQ
// distribution.
func BenchmarkExtensionQualityByDevice(b *testing.B) {
	ds, _ := benchStudy(b)
	printArtifact("extension-qualitydist", study.RenderQualityByDevice(study.QualityByDevice(ds)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = study.QualityByDevice(ds)
	}
}

// --- Indexed 1:N identification ---------------------------------------
//
// The retrieval-stage benchmark builds synthetic galleries far larger
// than the study cohort (identification latency is the deployment
// bottleneck, not match accuracy), so it uses its own template cache
// rather than the shared study dataset. Scale with
// FPINTEROP_BENCH_GALLERY, a comma-separated list of gallery sizes
// (default "1000,10000,50000").

var (
	idxBenchMu      sync.Mutex
	idxBenchCohort  *population.Cohort
	idxBenchTpls    []*minutiae.Template // gallery templates (D0, sample 0)
	idxBenchProbes  []*minutiae.Template // probe templates (D0, sample 1)
	idxBenchStores  = map[string]*gallery.Store{}
	idxBenchRouters = map[string]*shard.Router{}
)

const idxBenchProbeCount = 16

func idxBenchSizes() []int {
	spec := os.Getenv("FPINTEROP_BENCH_GALLERY")
	if spec == "" {
		return []int{1000, 10000, 50000}
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		if n, err := strconv.Atoi(strings.TrimSpace(f)); err == nil && n > 0 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return []int{1000, 10000, 50000}
	}
	return out
}

// idxBenchFill ensures n gallery templates and the shared probe set are
// captured; the caller must hold idxBenchMu.
func idxBenchFill(b *testing.B, n int) {
	b.Helper()
	if idxBenchCohort == nil {
		max := idxBenchProbeCount
		for _, s := range idxBenchSizes() {
			if s > max {
				max = s
			}
		}
		idxBenchCohort = population.NewCohort(rng.New(4242), population.CohortOptions{Size: max})
	}
	d0, _ := sensor.ProfileByID("D0")
	for len(idxBenchTpls) < n {
		imp, err := d0.CaptureSubject(idxBenchCohort.Subjects[len(idxBenchTpls)], 0, sensor.CaptureOptions{})
		if err != nil {
			b.Fatal(err)
		}
		idxBenchTpls = append(idxBenchTpls, imp.Template)
	}
	for len(idxBenchProbes) < idxBenchProbeCount {
		imp, err := d0.CaptureSubject(idxBenchCohort.Subjects[len(idxBenchProbes)], 1, sensor.CaptureOptions{})
		if err != nil {
			b.Fatal(err)
		}
		idxBenchProbes = append(idxBenchProbes, imp.Template)
	}
}

// idxBenchStore returns a cached gallery of n enrollments, with or
// without the triplet index, plus the shared probe set. Stores are
// built once per (size, variant) and reused across benchmark
// iterations.
func idxBenchStore(b *testing.B, n int, indexed bool) (*gallery.Store, []*minutiae.Template) {
	b.Helper()
	idxBenchMu.Lock()
	defer idxBenchMu.Unlock()
	idxBenchFill(b, n)
	key := fmt.Sprintf("exhaustive/%d", n)
	if indexed {
		key = fmt.Sprintf("indexed/%d", n)
	}
	if s, ok := idxBenchStores[key]; ok {
		return s, idxBenchProbes
	}
	store := gallery.New(nil)
	for i := 0; i < n; i++ {
		if err := store.Enroll(fmt.Sprintf("subject-%06d", i), "D0", idxBenchTpls[i]); err != nil {
			b.Fatal(err)
		}
	}
	if indexed {
		start := time.Now()
		if err := store.EnableIndex(gallery.IndexOptions{}); err != nil {
			b.Fatal(err)
		}
		st, _ := store.IndexStats()
		printArtifact(key, fmt.Sprintf(
			"[indexed-identify] N=%d: index built in %v (%d keys, %d postings)",
			n, time.Since(start).Round(time.Millisecond), st.DistinctKeys, st.Postings))
	}
	idxBenchStores[key] = store
	return store, idxBenchProbes
}

// BenchmarkExtensionIndexedIdentify contrasts 1:N identification served
// by the minutia-triplet retrieval index against the exhaustive scan at
// growing gallery sizes, and prints the indexed-vs-exhaustive CMC
// comparison on the study population (the recall cost of the
// shortlist). The acceptance bar for the retrieval stage: ≥5× speedup
// at 10k enrollments with rank-1 within 2pp of exhaustive.
func BenchmarkExtensionIndexedIdentify(b *testing.B) {
	ds, sets := benchStudy(b)
	if e, ok := study.ExperimentByID("index"); ok {
		out, err := e.Run(ds, sets)
		if err != nil {
			b.Fatal(err)
		}
		printArtifact("extension-index", out)
	}
	for _, n := range idxBenchSizes() {
		for _, indexed := range []bool{false, true} {
			name := fmt.Sprintf("exhaustive/N=%d", n)
			if indexed {
				name = fmt.Sprintf("indexed/N=%d", n)
			}
			b.Run(name, func(b *testing.B) {
				store, probes := idxBenchStore(b, n, indexed)
				b.ResetTimer()
				shortlistSum := 0
				for i := 0; i < b.N; i++ {
					cands, stats, err := store.IdentifyDetailedContext(context.Background(), probes[i%len(probes)], 5)
					if err != nil {
						b.Fatal(err)
					}
					if len(cands) == 0 {
						b.Fatal("no candidates")
					}
					if indexed && !stats.Indexed {
						b.Fatalf("recall guard tripped at N=%d (shortlist %d)", n, stats.Shortlist)
					}
					shortlistSum += stats.Shortlist
				}
				if indexed {
					b.ReportMetric(float64(shortlistSum)/float64(b.N), "shortlist/op")
				}
			})
		}
	}
}

// shardBenchRouter returns a cached scatter-gather router of `shards`
// indexed local shards holding n enrollments, plus the shared probes.
// Per-shard index fanout shrinks with the shard count (each shard only
// needs to surface the global top-k plus slack), so the merged scan
// count stays comparable to a single indexed store while ring lookup
// and index voting parallelize across shards.
func shardBenchRouter(b *testing.B, n, shards int) (*shard.Router, []*minutiae.Template) {
	b.Helper()
	idxBenchMu.Lock()
	defer idxBenchMu.Unlock()
	idxBenchFill(b, n)
	key := fmt.Sprintf("sharded/%d/%d", shards, n)
	if r, ok := idxBenchRouters[key]; ok {
		return r, idxBenchProbes
	}
	fanout := (64 + shards - 1) / shards
	if fanout < 8 {
		fanout = 8
	}
	backends := make([]shard.Backend, shards)
	for i := range backends {
		store := gallery.New(nil)
		if err := store.EnableIndex(gallery.IndexOptions{
			Index:         index.Options{Fanout: fanout},
			MinCandidates: 1,
		}); err != nil {
			b.Fatal(err)
		}
		backends[i] = shard.NewLocal(fmt.Sprintf("shard-%d", i), store)
	}
	router, err := shard.New(backends, shard.Options{})
	if err != nil {
		b.Fatal(err)
	}
	items := make([]shard.Enrollment, n)
	for i := 0; i < n; i++ {
		items[i] = shard.Enrollment{ID: fmt.Sprintf("subject-%06d", i), DeviceID: "D0", Template: idxBenchTpls[i]}
	}
	start := time.Now()
	if err := router.EnrollBatch(context.Background(), items); err != nil {
		b.Fatal(err)
	}
	sizes := make([]string, shards)
	for i, bk := range router.Backends() {
		sz, _ := bk.Len(context.Background())
		sizes[i] = fmt.Sprintf("%d", sz)
	}
	printArtifact(key, fmt.Sprintf(
		"[sharded-identify] N=%d shards=%d: built in %v (per-shard fanout %d, sizes %s)",
		n, shards, time.Since(start).Round(time.Millisecond), fanout, strings.Join(sizes, "/")))
	idxBenchRouters[key] = router
	return router, idxBenchProbes
}

// BenchmarkExtensionShardedIdentify measures 1:N identification through
// the scatter-gather shard router at growing shard counts: the
// horizontal-scale path the deployment architecture needs once a single
// store (even indexed) saturates. Each sub-benchmark fans the probe out
// to every shard and merges the per-shard top-5 shortlists; at a fixed
// gallery size the p50 should improve as shards are added, because the
// per-shard index voting and shortlist scoring shrink with the
// partition while the fan-out runs in parallel.
func BenchmarkExtensionShardedIdentify(b *testing.B) {
	for _, n := range idxBenchSizes() {
		for _, shards := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("shards=%d/N=%d", shards, n), func(b *testing.B) {
				router, probes := shardBenchRouter(b, n, shards)
				b.ResetTimer()
				scannedSum := 0
				for i := 0; i < b.N; i++ {
					cands, stats, err := router.IdentifyDetailed(context.Background(), probes[i%len(probes)], 5)
					if err != nil {
						b.Fatal(err)
					}
					if len(cands) == 0 {
						b.Fatal("no candidates")
					}
					if stats.Partial || stats.ShardsQueried != shards {
						b.Fatalf("partial coverage at N=%d shards=%d: %+v", n, shards, stats)
					}
					scannedSum += stats.Scanned
				}
				b.ReportMetric(float64(scannedSum)/float64(b.N), "scanned/op")
			})
		}
	}
}
