package study

import (
	"math"
	"sync"
	"testing"

	"strings"

	"fpinterop/internal/gallery"
	"fpinterop/internal/nfiq"
	"fpinterop/internal/stats"
)

// The shared test study: built once, used by every analysis test. Small
// enough for CI (single-core) but large enough for the paper's qualitative
// shapes to be visible.
var (
	tsOnce sync.Once
	tsDS   *Dataset
	tsSets *ScoreSets
	tsErr  error
)

func testStudy(t *testing.T) (*Dataset, *ScoreSets) {
	t.Helper()
	tsOnce.Do(func() {
		cfg := Config{
			Seed:     2013,
			Subjects: 60,
			MaxDMI:   4000,
			MaxDDMI:  6000,
		}
		tsDS, tsErr = BuildDataset(cfg)
		if tsErr != nil {
			return
		}
		tsSets, tsErr = GenerateScores(tsDS)
	})
	if tsErr != nil {
		t.Fatal(tsErr)
	}
	return tsDS, tsSets
}

func TestBuildDatasetShape(t *testing.T) {
	ds, _ := testStudy(t)
	if ds.NumSubjects() != 60 {
		t.Fatalf("subjects = %d", ds.NumSubjects())
	}
	if ds.NumDevices() != 5 {
		t.Fatalf("devices = %d", ds.NumDevices())
	}
	for s := 0; s < ds.NumSubjects(); s++ {
		for d := 0; d < ds.NumDevices(); d++ {
			for k := 0; k < SamplesPerDevice; k++ {
				imp := ds.Impression(s, d, k)
				if imp == nil || imp.Template == nil {
					t.Fatalf("missing impression (%d,%d,%d)", s, d, k)
				}
				if imp.SubjectID != s {
					t.Fatalf("impression subject %d, want %d", imp.SubjectID, s)
				}
			}
		}
	}
}

func TestDatasetDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Subjects: 4, MaxDMI: 10, MaxDDMI: 10}
	a, err := BuildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		for d := 0; d < 5; d++ {
			ta := a.Impression(s, d, 0).Template
			tb := b.Impression(s, d, 0).Template
			if ta.Count() != tb.Count() {
				t.Fatalf("impression (%d,%d) differs across builds", s, d)
			}
		}
	}
}

func TestDeviceIndex(t *testing.T) {
	ds, _ := testStudy(t)
	if i, ok := ds.DeviceIndex("D3"); !ok || ds.Devices[i].ID != "D3" {
		t.Fatal("DeviceIndex broken")
	}
	if _, ok := ds.DeviceIndex("DX"); ok {
		t.Fatal("unknown device resolved")
	}
}

func TestTable3CountsFollowDesign(t *testing.T) {
	ds, sets := testStudy(t)
	n := ds.NumSubjects()
	counts := Table3(sets)
	// DMG: one per subject per live-scan device (paper: 494×4 = 1,976).
	if counts.DMG != n*4 {
		t.Fatalf("DMG = %d, want %d", counts.DMG, n*4)
	}
	// DDMG: ordered device pairs, 5×4 = 20 per subject (paper: 9,880).
	if counts.DDMG != n*20 {
		t.Fatalf("DDMG = %d, want %d", counts.DDMG, n*20)
	}
	if counts.DMI != 4000 || counts.DDMI != 6000 {
		t.Fatalf("impostor counts %d/%d, want caps honored", counts.DMI, counts.DDMI)
	}
}

func TestPaperScaleCountArithmetic(t *testing.T) {
	// The full-scale design reproduces Table 3 exactly: 494 subjects.
	const subjects = 494
	if subjects*4 != 1976 {
		t.Fatal("DMG arithmetic broken")
	}
	if subjects*20 != 9880 {
		t.Fatal("DDMG arithmetic broken")
	}
}

func TestGenuineScoresExceedImpostor(t *testing.T) {
	_, sets := testStudy(t)
	gm := stats.Mean(Values(sets.DMG))
	im := stats.Mean(Values(sets.DMI))
	if gm < im+5 {
		t.Fatalf("genuine mean %v not well above impostor mean %v", gm, im)
	}
}

func TestSameDeviceGenuineBeatsCrossDevice(t *testing.T) {
	// The paper's headline finding: genuine scores are higher when both
	// samples come from the same device.
	_, sets := testStudy(t)
	dmg := stats.Mean(Values(sets.DMG))
	ddmg := stats.Mean(Values(sets.DDMG))
	if dmg <= ddmg {
		t.Fatalf("DMG mean %v not above DDMG mean %v", dmg, ddmg)
	}
}

func TestImpostorsInsensitiveToDeviceDiversity(t *testing.T) {
	// The paper: FMR is NOT affected by device diversity. Means of DMI
	// and DDMI should be close (both near zero).
	_, sets := testStudy(t)
	dmi := stats.Mean(Values(sets.DMI))
	ddmi := stats.Mean(Values(sets.DDMI))
	if math.Abs(dmi-ddmi) > 0.5 {
		t.Fatalf("impostor means diverge: DMI %v vs DDMI %v", dmi, ddmi)
	}
	// And both stay below the empirical bound of 7.
	for _, s := range append(append([]Score{}, sets.DMI...), sets.DDMI...) {
		if s.Value >= 7 {
			t.Fatalf("impostor score %v >= 7", s.Value)
		}
	}
}

func TestInkProbeScoresLowest(t *testing.T) {
	// Matching scores of any live-scan probe are higher than ten-print
	// probes (paper, Figure 4 discussion).
	ds, sets := testStudy(t)
	d4, _ := ds.DeviceIndex("D4")
	var live, ink []float64
	for _, s := range sets.DDMG {
		if ds.Devices[s.DeviceG].Ink {
			continue
		}
		if s.DeviceP == d4 {
			ink = append(ink, s.Value)
		} else {
			live = append(live, s.Value)
		}
	}
	if stats.Mean(ink) >= stats.Mean(live) {
		t.Fatalf("ink probe mean %v not below live probe mean %v",
			stats.Mean(ink), stats.Mean(live))
	}
}

func TestFigure1Demographics(t *testing.T) {
	ds, _ := testStudy(t)
	f := Figure1(ds)
	if f.Total != 60 {
		t.Fatalf("total = %d", f.Total)
	}
	sum := 0
	for _, n := range f.Ages {
		sum += n
	}
	if sum != f.Total {
		t.Fatal("age histogram incomplete")
	}
}

func TestFigure2OrderedSeries(t *testing.T) {
	ds, sets := testStudy(t)
	f, err := Figure2(ds, sets, "D3")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.SeriesByProbe) != 5 {
		t.Fatalf("series count = %d, want 5", len(f.SeriesByProbe))
	}
	for id, series := range f.SeriesByProbe {
		for i := 1; i < len(series); i++ {
			if series[i] > series[i-1] {
				t.Fatalf("series %s not descending", id)
			}
		}
	}
	// Same-device series dominates the others on average.
	same := stats.Mean(f.SeriesByProbe["D3"])
	for id, series := range f.SeriesByProbe {
		if id == "D3" {
			continue
		}
		if stats.Mean(series) >= same {
			t.Fatalf("probe %s mean %v >= same-device %v", id, stats.Mean(series), same)
		}
	}
	if _, err := Figure2(ds, sets, "DX"); err == nil {
		t.Fatal("expected unknown-device error")
	}
}

func TestFigure3Histograms(t *testing.T) {
	ds, sets := testStudy(t)
	f, err := Figure3(ds, sets, "D0")
	if err != nil {
		t.Fatal(err)
	}
	// Impostor mass concentrates in the lowest bins (paper: 0-1 bin holds
	// the vast majority).
	impTotal := f.Impostor.Over + f.Impostor.Under
	for _, c := range f.Impostor.Counts {
		impTotal += c
	}
	if impTotal == 0 {
		t.Skip("no same-device impostor scores for D0 in the subset")
	}
	low := f.Impostor.Counts[0] + f.Impostor.Counts[1] + f.Impostor.Counts[2]
	if float64(low) < 0.9*float64(impTotal) {
		t.Fatalf("impostor mass not concentrated low: %d of %d in 0-3", low, impTotal)
	}
	// Genuine mass sits above the impostor mass.
	genHi := 0
	for i := 7; i < len(f.Genuine.Counts); i++ {
		genHi += f.Genuine.Counts[i]
	}
	if genHi == 0 {
		t.Fatal("no genuine scores above 7")
	}
	if _, err := Figure3(ds, sets, "DX"); err == nil {
		t.Fatal("expected unknown-device error")
	}
}

func TestFigure4CrossDeviceOverlapGreater(t *testing.T) {
	// Paper: the overlap of genuine and impostor distributions grows with
	// diverse sensors — the number of genuine scores below 7 is higher in
	// diverse vs non-diverse sensor choices (pooled over device pairs;
	// individual pairs fluctuate, as the paper's own D1/D3 anomalies show).
	_, sets := testStudy(t)
	lowFrac := func(scores []Score) float64 {
		low := 0
		for _, s := range scores {
			if s.Value < 7 {
				low++
			}
		}
		if len(scores) == 0 {
			return 0
		}
		return float64(low) / float64(len(scores))
	}
	if lowFrac(sets.DDMG) <= lowFrac(sets.DMG) {
		t.Fatalf("cross-device low-genuine fraction %v not above same-device %v",
			lowFrac(sets.DDMG), lowFrac(sets.DMG))
	}
}

func TestFigure4APIErrors(t *testing.T) {
	ds, sets := testStudy(t)
	if _, err := Figure4(ds, sets, "D0", "D0"); err == nil {
		t.Fatal("expected distinct-device error")
	}
	if _, err := Figure4(ds, sets, "DX", "D0"); err == nil {
		t.Fatal("expected unknown-device error")
	}
}

func TestTable4KendallMatrix(t *testing.T) {
	ds, sets := testStudy(t)
	tbl, err := Table4(ds, sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.RowIDs) != 4 || len(tbl.ColIDs) != 5 {
		t.Fatalf("matrix shape %dx%d", len(tbl.RowIDs), len(tbl.ColIDs))
	}
	for i := range tbl.RowIDs {
		// Diagonal: a list correlated with itself → tau 1, p microscopic.
		if tbl.Tau[i][i] != 1 {
			t.Fatalf("diagonal tau[%d] = %v", i, tbl.Tau[i][i])
		}
		if tbl.P[i][i].Log10 > -20 {
			t.Fatalf("diagonal p[%d] = %v not extreme", i, tbl.P[i][i])
		}
		// Off-diagonal cells are strictly less significant than diagonal.
		for j := range tbl.ColIDs {
			if j == i {
				continue
			}
			if tbl.P[i][j].Log10 < tbl.P[i][i].Log10 {
				t.Fatalf("off-diagonal (%d,%d) more significant than diagonal", i, j)
			}
		}
	}
}

func TestTable5FNMRMatrixShape(t *testing.T) {
	ds, sets := testStudy(t)
	m, err := FNMRMatrix(ds, sets, FNMRMatrixOptions{TargetFMR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.DeviceIDs) != 5 {
		t.Fatalf("matrix size %d", len(m.DeviceIDs))
	}
	// Average live-scan diagonal FNMR below average off-diagonal FNMR
	// (the paper's central Table 5 observation).
	var diag, off []float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				diag = append(diag, m.FNMR[i][j])
			} else {
				off = append(off, m.FNMR[i][j])
			}
		}
	}
	if stats.Mean(diag) > stats.Mean(off) {
		t.Fatalf("diagonal FNMR %v above off-diagonal %v", stats.Mean(diag), stats.Mean(off))
	}
	// D4 column (ink probes) is the worst among off-diagonal columns.
	d4, _ := ds.DeviceIndex("D4")
	var inkCol, liveOff []float64
	for i := 0; i < 4; i++ {
		inkCol = append(inkCol, m.FNMR[i][d4])
		for j := 0; j < 4; j++ {
			if i != j {
				liveOff = append(liveOff, m.FNMR[i][j])
			}
		}
	}
	if stats.Mean(inkCol) < stats.Mean(liveOff) {
		t.Fatalf("ink column FNMR %v not the worst (live off-diag %v)",
			stats.Mean(inkCol), stats.Mean(liveOff))
	}
	// D4-D4 (rescan of the same card) is anomalously low, as in Table 5.
	if m.FNMR[d4][d4] > stats.Mean(liveOff) {
		t.Fatalf("D4-D4 FNMR %v should be anomalously low", m.FNMR[d4][d4])
	}
}

func TestTable6QualityFilteredMatrix(t *testing.T) {
	ds, sets := testStudy(t)
	full, err := FNMRMatrix(ds, sets, FNMRMatrixOptions{TargetFMR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	good, err := FNMRMatrix(ds, sets, FNMRMatrixOptions{TargetFMR: 0.01, MaxQuality: nfiq.Good})
	if err != nil {
		t.Fatal(err)
	}
	// Restricting to good-quality impressions must reduce usable pairs and
	// must not increase the overall genuine rejection mass.
	var fullSum, goodSum float64
	var fullN, goodN int
	for i := range full.FNMR {
		for j := range full.FNMR[i] {
			fullSum += full.FNMR[i][j] * float64(full.GenuineCount[i][j])
			fullN += full.GenuineCount[i][j]
			goodSum += good.FNMR[i][j] * float64(good.GenuineCount[i][j])
			goodN += good.GenuineCount[i][j]
		}
	}
	if goodN >= fullN {
		t.Fatalf("quality filter kept %d of %d pairs", goodN, fullN)
	}
	if goodN > 0 && fullN > 0 && goodSum/float64(goodN) > fullSum/float64(fullN) {
		t.Fatalf("quality-filtered FNMR %v above unfiltered %v",
			goodSum/float64(goodN), fullSum/float64(fullN))
	}
}

func TestFNMRMatrixErrors(t *testing.T) {
	ds, sets := testStudy(t)
	if _, err := FNMRMatrix(ds, sets, FNMRMatrixOptions{}); err == nil {
		t.Fatal("expected target-FMR error")
	}
}

func TestFigure5QualitySurface(t *testing.T) {
	_, sets := testStudy(t)
	f := Figure5(sets)
	if f.Threshold != 10 {
		t.Fatal("threshold should be 10 (paper)")
	}
	var sameTotal, crossTotal int
	for qg := 0; qg < 5; qg++ {
		for qp := 0; qp < 5; qp++ {
			sameTotal += f.SameDevice[qg][qp]
			crossTotal += f.CrossDevice[qg][qp]
		}
	}
	// Cross-device low scores are far more frequent overall — the paper's
	// Figure 5(b) has much taller bars than 5(a).
	if crossTotal <= sameTotal {
		t.Fatalf("cross-device low scores %d not above same-device %d", crossTotal, sameTotal)
	}
	// Good-quality pairs (1,1) should contribute few low scores in the
	// same-device surface compared with poor pairs.
	if f.SameDevice[0][0] > f.SameDevice[4][4]+f.SameDevice[3][3]+f.SameDevice[4][3]+f.SameDevice[3][4] && sameTotal > 10 {
		t.Fatalf("clean pairs produce more low scores (%d) than poor pairs", f.SameDevice[0][0])
	}
}

func TestSameDeviceAndValues(t *testing.T) {
	scores := []Score{
		{SubjectG: 1, SubjectP: 1, DeviceG: 0, DeviceP: 0, Value: 10},
		{SubjectG: 1, SubjectP: 2, DeviceG: 0, DeviceP: 1, Value: 2},
	}
	if !scores[0].SameDevice() || scores[1].SameDevice() {
		t.Fatal("SameDevice() wrong")
	}
	vs := Values(scores)
	if len(vs) != 2 || vs[0] != 10 {
		t.Fatal("Values wrong")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	ds, sets := testStudy(t)
	if out := RenderTable1(ds); len(out) < 100 {
		t.Fatal("Table 1 rendering too short")
	}
	if out := RenderFigure1(Figure1(ds)); len(out) < 100 {
		t.Fatal("Figure 1 rendering too short")
	}
	if out := RenderTable3(Table3(sets)); len(out) < 50 {
		t.Fatal("Table 3 rendering too short")
	}
	f2, _ := Figure2(ds, sets, "D3")
	if out := RenderFigure2(f2); len(out) < 100 {
		t.Fatal("Figure 2 rendering too short")
	}
	f3, _ := Figure3(ds, sets, "D0")
	if out := RenderFigureHist("Figure 3", f3); len(out) < 50 {
		t.Fatal("Figure 3 rendering too short")
	}
	t4, err := Table4(ds, sets)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable4(t4); len(out) < 100 {
		t.Fatal("Table 4 rendering too short")
	}
	m5, err := FNMRMatrix(ds, sets, FNMRMatrixOptions{TargetFMR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderFNMRMatrix("Table 5", m5); len(out) < 100 {
		t.Fatal("Table 5 rendering too short")
	}
	if out := RenderFigure5(Figure5(sets)); len(out) < 100 {
		t.Fatal("Figure 5 rendering too short")
	}
}

func TestIndexedIdentificationTracksExhaustive(t *testing.T) {
	ds, _ := testStudy(t)
	r, err := IndexedIdentification(ds, "D0", "D0", 40, 3, gallery.IndexOptions{MinCandidates: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Gallery != 40 || r.Probes != 40 {
		t.Fatalf("shape: %+v", r)
	}
	for k := 1; k < len(r.Indexed); k++ {
		if r.Indexed[k] < r.Indexed[k-1] {
			t.Fatal("indexed CMC not monotone")
		}
	}
	// The shortlist can only lose probes relative to the full scan, and
	// on a same-device population it should lose almost none.
	if r.Indexed.RankOne() > r.Exhaustive.RankOne() {
		t.Fatalf("indexed rank-1 %.3f exceeds exhaustive %.3f",
			r.Indexed.RankOne(), r.Exhaustive.RankOne())
	}
	if d := r.Exhaustive.RankOne() - r.Indexed.RankOne(); d > 0.05 {
		t.Fatalf("indexed rank-1 trails exhaustive by %.3f", d)
	}
	if r.MeanShortlist == 0 {
		t.Fatal("no shortlist statistics collected")
	}
	out := RenderIndexedIdentification([]IndexedIdentificationResult{r})
	if !strings.Contains(out, "D0->D0") || !strings.Contains(out, "idx rank-1") {
		t.Fatalf("render missing fields:\n%s", out)
	}
}

func TestIndexExperimentRegistered(t *testing.T) {
	if _, ok := ExperimentByID("index"); !ok {
		t.Fatal("index experiment not in the registry")
	}
}

func TestIdentificationUnknownDevices(t *testing.T) {
	ds, _ := testStudy(t)
	if _, err := Identification(ds, "D9", "D0", 5, 3); err == nil {
		t.Fatal("unknown gallery device accepted")
	}
	if _, err := IndexedIdentification(ds, "D0", "D9", 5, 3, gallery.IndexOptions{}); err == nil {
		t.Fatal("unknown probe device accepted")
	}
}
