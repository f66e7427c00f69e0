package study

import (
	"fmt"
	"sort"

	"fpinterop/internal/nfiq"
	"fpinterop/internal/population"
	"fpinterop/internal/stats"
)

// Table3Counts reports the size of each score set (the paper's Table 3).
type Table3Counts struct {
	DMG, DDMG, DMI, DDMI int
}

// Table3 computes the score-set cardinalities.
func Table3(sets *ScoreSets) Table3Counts {
	return Table3Counts{
		DMG:  len(sets.DMG),
		DDMG: len(sets.DDMG),
		DMI:  len(sets.DMI),
		DDMI: len(sets.DDMI),
	}
}

// Figure1Data is the demographic summary of the cohort (the paper's
// Figure 1).
type Figure1Data struct {
	Ages        map[population.AgeGroup]int
	Ethnicities map[population.Ethnicity]int
	Total       int
}

// Figure1 summarizes cohort demographics.
func Figure1(ds *Dataset) Figure1Data {
	return Figure1Data{
		Ages:        ds.Cohort.AgeHistogram(),
		Ethnicities: ds.Cohort.EthnicityHistogram(),
		Total:       len(ds.Cohort.Subjects),
	}
}

// Figure2Data holds, per probe device, the genuine cross-device match
// scores against a fixed gallery device, sorted descending (the paper's
// Figure 2 uses the Seek II, D3, as the gallery).
type Figure2Data struct {
	GalleryDevice string
	// SeriesByProbe maps probe device ID to its ordered score curve.
	SeriesByProbe map[string][]float64
}

// Figure2 extracts the ordered genuine score curves for a gallery device.
func Figure2(ds *Dataset, sets *ScoreSets, galleryID string) (Figure2Data, error) {
	gi, ok := ds.DeviceIndex(galleryID)
	if !ok {
		return Figure2Data{}, fmt.Errorf("study: unknown gallery device %q", galleryID)
	}
	out := Figure2Data{GalleryDevice: galleryID, SeriesByProbe: map[string][]float64{}}
	// Same-device series from DMG (or GenuineAll for ink).
	for _, s := range sets.DMG {
		if s.DeviceG == gi {
			id := ds.Devices[s.DeviceP].ID
			out.SeriesByProbe[id] = append(out.SeriesByProbe[id], s.Value)
		}
	}
	for _, s := range sets.DDMG {
		if s.DeviceG == gi {
			id := ds.Devices[s.DeviceP].ID
			out.SeriesByProbe[id] = append(out.SeriesByProbe[id], s.Value)
		}
	}
	for _, series := range out.SeriesByProbe {
		sort.Sort(sort.Reverse(sort.Float64Slice(series)))
	}
	return out, nil
}

// FigureHistData is a genuine/impostor score histogram pair for one device
// combination (the paper's Figures 3 and 4).
type FigureHistData struct {
	GalleryDevice, ProbeDevice string
	Genuine, Impostor          *stats.Histogram
}

// histRange covers the full matcher score scale with unit-width bins, as
// in the paper's histograms ("the frequency of the DMI scores for the
// range 0-1 is 18,721...").
func histRange() (float64, float64, int) { return 0, 30, 30 }

// Figure3 builds same-device genuine/impostor histograms for one device
// (the paper uses D0, the Guardian R2).
func Figure3(ds *Dataset, sets *ScoreSets, deviceID string) (FigureHistData, error) {
	di, ok := ds.DeviceIndex(deviceID)
	if !ok {
		return FigureHistData{}, fmt.Errorf("study: unknown device %q", deviceID)
	}
	lo, hi, n := histRange()
	gh, err := stats.NewHistogram(lo, hi, n)
	if err != nil {
		return FigureHistData{}, err
	}
	ih, err := stats.NewHistogram(lo, hi, n)
	if err != nil {
		return FigureHistData{}, err
	}
	for _, s := range sets.DMG {
		if s.DeviceG == di {
			gh.Add(s.Value)
		}
	}
	for _, s := range sets.DMI {
		if s.DeviceG == di {
			ih.Add(s.Value)
		}
	}
	return FigureHistData{GalleryDevice: deviceID, ProbeDevice: deviceID, Genuine: gh, Impostor: ih}, nil
}

// Figure4 builds cross-device genuine/impostor histograms for an ordered
// device pair (the paper uses D0 gallery vs D1 probe).
func Figure4(ds *Dataset, sets *ScoreSets, galleryID, probeID string) (FigureHistData, error) {
	gi, ok := ds.DeviceIndex(galleryID)
	if !ok {
		return FigureHistData{}, fmt.Errorf("study: unknown gallery device %q", galleryID)
	}
	pi, ok := ds.DeviceIndex(probeID)
	if !ok {
		return FigureHistData{}, fmt.Errorf("study: unknown probe device %q", probeID)
	}
	if gi == pi {
		return FigureHistData{}, fmt.Errorf("study: Figure 4 needs two distinct devices")
	}
	lo, hi, n := histRange()
	gh, err := stats.NewHistogram(lo, hi, n)
	if err != nil {
		return FigureHistData{}, err
	}
	ih, err := stats.NewHistogram(lo, hi, n)
	if err != nil {
		return FigureHistData{}, err
	}
	for _, s := range sets.DDMG {
		if s.DeviceG == gi && s.DeviceP == pi {
			gh.Add(s.Value)
		}
	}
	for _, s := range sets.DDMI {
		if s.DeviceG == gi && s.DeviceP == pi {
			ih.Add(s.Value)
		}
	}
	return FigureHistData{GalleryDevice: galleryID, ProbeDevice: probeID, Genuine: gh, Impostor: ih}, nil
}

// Table4Data is the Kendall rank correlation p-value matrix: rows are the
// four live-scan devices DX (the same-device reference list), columns are
// all five devices DY (the cross-device comparison list).
type Table4Data struct {
	RowIDs, ColIDs []string
	Tau            [][]float64
	P              [][]stats.PValue
}

// Table4 runs Kendall's test between the per-subject genuine score list of
// each same-device scenario (DX gallery, DX probe) and each scenario with
// the same gallery but a different probe device (DX gallery, DY probe),
// paired by subject — the paper's Table 4.
func Table4(ds *Dataset, sets *ScoreSets) (Table4Data, error) {
	nDev := ds.NumDevices()
	nSubj := ds.NumSubjects()
	// Per (gallery, probe) device pair: one genuine score per subject.
	// Same-device lists come from DMG (sample0 vs sample1); cross-device
	// from DDMG (sample0 vs sample0). Ink (D4) has no DMG row.
	lists := make([][][]float64, nDev)
	for i := range lists {
		lists[i] = make([][]float64, nDev)
		for j := range lists[i] {
			lists[i][j] = make([]float64, nSubj)
		}
	}
	for _, s := range sets.DMG {
		lists[s.DeviceG][s.DeviceP][s.SubjectG] = s.Value
	}
	// Ink diagonal (rescan pair) comes from GenuineAll.
	for _, s := range sets.GenuineAll {
		if s.DeviceG == s.DeviceP && ds.Devices[s.DeviceG].Ink &&
			s.SampleG == 0 && s.SampleP == 1 {
			lists[s.DeviceG][s.DeviceP][s.SubjectG] = s.Value
		}
	}
	for _, s := range sets.DDMG {
		lists[s.DeviceG][s.DeviceP][s.SubjectG] = s.Value
	}

	var out Table4Data
	for di := 0; di < nDev; di++ {
		if ds.Devices[di].Ink {
			continue // rows are the four live-scan devices
		}
		out.RowIDs = append(out.RowIDs, ds.Devices[di].ID)
	}
	for di := 0; di < nDev; di++ {
		out.ColIDs = append(out.ColIDs, ds.Devices[di].ID)
	}
	out.Tau = make([][]float64, len(out.RowIDs))
	out.P = make([][]stats.PValue, len(out.RowIDs))
	rowOf := make(map[int]int, len(out.RowIDs)) // device index → matrix row
	row := 0
	for di := 0; di < nDev; di++ {
		if ds.Devices[di].Ink {
			continue
		}
		out.Tau[row] = make([]float64, nDev)
		out.P[row] = make([]stats.PValue, nDev)
		rowOf[di] = row
		row++
	}
	// The Kendall tests of different cells are independent; run them on
	// the bounded worker pool, each writing only its own (row, dj) slot.
	err := forEachCell(nDev, ds.Config.Parallelism, func(di, dj int) error {
		r, ok := rowOf[di]
		if !ok {
			return nil // ink device: no same-device reference row
		}
		res, err := stats.Kendall(lists[di][di], lists[di][dj])
		if err != nil {
			return fmt.Errorf("table 4 cell (%s, %s): %w",
				ds.Devices[di].ID, ds.Devices[dj].ID, err)
		}
		out.Tau[r][dj] = res.Tau
		out.P[r][dj] = res.P
		return nil
	})
	if err != nil {
		return Table4Data{}, err
	}
	return out, nil
}

// FNMRMatrixData is an interoperability FNMR matrix (Tables 5 and 6):
// rows are enrollment (gallery) devices, columns are verification (probe)
// devices.
type FNMRMatrixData struct {
	DeviceIDs []string
	// FNMR[i][j] is the false-non-match rate enrolling on device i and
	// verifying on device j at the configured FMR.
	FNMR [][]float64
	// Threshold[i][j] is the decision threshold that fixes the FMR.
	Threshold [][]float64
	// TargetFMR is the fixed false-match rate.
	TargetFMR float64
	// GenuineCount[i][j] is how many genuine comparisons the cell used.
	GenuineCount [][]int
}

// FNMRMatrixOptions configures matrix computation.
type FNMRMatrixOptions struct {
	// TargetFMR is the fixed false match rate (Table 5 uses 0.01% = 1e-4,
	// Table 6 uses 0.1% = 1e-3).
	TargetFMR float64
	// MaxQuality, when non-zero, keeps only comparisons where both
	// impressions have NFIQ class strictly below this value (Table 6 uses
	// 3: only NFIQ 1–2 images).
	MaxQuality nfiq.Class
}

// FNMRMatrix computes an interoperability FNMR matrix from the dense
// genuine set and the impostor sets. Thresholds are set per cell from that
// cell's impostor score population.
func FNMRMatrix(ds *Dataset, sets *ScoreSets, opts FNMRMatrixOptions) (FNMRMatrixData, error) {
	if opts.TargetFMR <= 0 {
		return FNMRMatrixData{}, fmt.Errorf("study: FNMR matrix needs a positive target FMR")
	}
	nDev := ds.NumDevices()
	keep := func(s Score) bool {
		if opts.MaxQuality == 0 {
			return true
		}
		return s.QualityG < opts.MaxQuality && s.QualityP < opts.MaxQuality
	}
	genuine := partitionByDevicePair(nDev, keep, sets.GenuineAll)
	impostor := partitionByDevicePair(nDev, keep, sets.DMI, sets.DDMI)

	out := FNMRMatrixData{TargetFMR: opts.TargetFMR}
	for i := 0; i < nDev; i++ {
		out.DeviceIDs = append(out.DeviceIDs, ds.Devices[i].ID)
	}
	out.FNMR = make([][]float64, nDev)
	out.Threshold = make([][]float64, nDev)
	out.GenuineCount = make([][]int, nDev)
	for i := 0; i < nDev; i++ {
		out.FNMR[i] = make([]float64, nDev)
		out.Threshold[i] = make([]float64, nDev)
		out.GenuineCount[i] = make([]int, nDev)
	}
	// Each cell sorts its partition once; the threshold fix and the FNMR
	// lookup both reuse the same ScoreDist. Cells are independent, so
	// they run on the bounded worker pool.
	err := forEachCell(nDev, ds.Config.Parallelism, func(i, j int) error {
		gen := genuine[i][j]
		imp := impostor[i][j]
		out.GenuineCount[i][j] = len(gen)
		if len(gen) == 0 || len(imp) == 0 {
			// Cell has no usable data (tiny test configs); report 0.
			return nil
		}
		// Cell-private partitions: sort in place, no copy.
		sort.Float64s(gen)
		sort.Float64s(imp)
		fnmr, thr, err := stats.ScoreDistFromSorted(gen, imp).FNMRAtFMR(opts.TargetFMR)
		if err != nil {
			return fmt.Errorf("cell (%d,%d): %w", i, j, err)
		}
		out.FNMR[i][j] = fnmr
		out.Threshold[i][j] = thr
		return nil
	})
	if err != nil {
		return FNMRMatrixData{}, err
	}
	return out, nil
}

// Figure5Data is the count of low genuine scores (< 10) per (gallery
// quality, probe quality) pair — the paper's Figure 5, split into the
// same-device surface (a) and the cross-device surface (b).
type Figure5Data struct {
	// SameDevice[qg-1][qp-1] counts same-device genuine scores below the
	// threshold for gallery quality qg and probe quality qp.
	SameDevice [5][5]int
	// CrossDevice is the analogous surface for diverse device pairs.
	CrossDevice [5][5]int
	// Threshold is the low-score cutoff (10, as in the paper).
	Threshold float64
}

// Figure5 computes the low-score quality surfaces.
func Figure5(sets *ScoreSets) Figure5Data {
	out := Figure5Data{Threshold: 10}
	for _, s := range sets.GenuineAll {
		if s.Value >= out.Threshold {
			continue
		}
		if !s.QualityG.Valid() || !s.QualityP.Valid() {
			continue
		}
		if s.SameDevice() {
			out.SameDevice[s.QualityG-1][s.QualityP-1]++
		} else {
			out.CrossDevice[s.QualityG-1][s.QualityP-1]++
		}
	}
	return out
}
