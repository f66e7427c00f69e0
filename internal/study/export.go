package study

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Report is the machine-readable form of a full study run: every artifact
// of the paper's evaluation as structured data, for downstream plotting
// or regression tracking.
type Report struct {
	// Seed and Subjects identify the run.
	Seed     uint64 `json:"seed"`
	Subjects int    `json:"subjects"`
	// Table3 holds the score-set cardinalities.
	Table3 Table3Counts `json:"table3"`
	// Figure1 holds demographic counts keyed by bin label.
	Figure1Ages        map[string]int `json:"figure1Ages"`
	Figure1Ethnicities map[string]int `json:"figure1Ethnicities"`
	// Table4 holds Kendall results as log10 p-values (exact even when the
	// p-value underflows float64).
	Table4Rows   []string    `json:"table4Rows"`
	Table4Cols   []string    `json:"table4Cols"`
	Table4Log10P [][]float64 `json:"table4Log10P"`
	// Table5 and Table6 are the FNMR matrices.
	Table5 FNMRMatrixData `json:"table5"`
	Table6 FNMRMatrixData `json:"table6"`
	// Figure5 holds the low-score quality surfaces.
	Figure5 Figure5Data `json:"figure5"`
}

// BuildReport computes every artifact into a Report.
func BuildReport(ds *Dataset, sets *ScoreSets) (*Report, error) {
	r := &Report{
		Seed:     ds.Config.Seed,
		Subjects: ds.NumSubjects(),
		Table3:   Table3(sets),
	}
	f1 := Figure1(ds)
	r.Figure1Ages = make(map[string]int, len(f1.Ages))
	for g, n := range f1.Ages {
		r.Figure1Ages[g.String()] = n
	}
	r.Figure1Ethnicities = make(map[string]int, len(f1.Ethnicities))
	for g, n := range f1.Ethnicities {
		r.Figure1Ethnicities[g.String()] = n
	}
	t4, err := Table4(ds, sets)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	r.Table4Rows = t4.RowIDs
	r.Table4Cols = t4.ColIDs
	r.Table4Log10P = make([][]float64, len(t4.RowIDs))
	for i := range t4.RowIDs {
		r.Table4Log10P[i] = make([]float64, len(t4.ColIDs))
		for j := range t4.ColIDs {
			r.Table4Log10P[i][j] = t4.P[i][j].Log10
		}
	}
	r.Table5, err = FNMRMatrix(ds, sets, FNMRMatrixOptions{TargetFMR: 0.0001})
	if err != nil {
		return nil, fmt.Errorf("report: table 5: %w", err)
	}
	r.Table6, err = FNMRMatrix(ds, sets, FNMRMatrixOptions{TargetFMR: 0.001, MaxQuality: 3})
	if err != nil {
		return nil, fmt.Errorf("report: table 6: %w", err)
	}
	r.Figure5 = Figure5(sets)
	return r, nil
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("report: encode json: %w", err)
	}
	return nil
}

// WriteScoresCSV streams raw scores as CSV with full provenance — the
// exact artifact an analyst would load into R/pandas to re-derive every
// figure. Column order: set, subjectG, subjectP, deviceG, deviceP,
// sampleG, sampleP, qualityG, qualityP, score.
func WriteScoresCSV(w io.Writer, ds *Dataset, sets *ScoreSets) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"set", "subjectG", "subjectP", "deviceG", "deviceP",
		"sampleG", "sampleP", "qualityG", "qualityP", "score",
	}); err != nil {
		return fmt.Errorf("csv header: %w", err)
	}
	emit := func(name string, scores []Score) error {
		row := make([]string, 10)
		for _, s := range scores {
			row[0] = name
			row[1] = strconv.Itoa(s.SubjectG)
			row[2] = strconv.Itoa(s.SubjectP)
			row[3] = ds.Devices[s.DeviceG].ID
			row[4] = ds.Devices[s.DeviceP].ID
			row[5] = strconv.Itoa(s.SampleG)
			row[6] = strconv.Itoa(s.SampleP)
			row[7] = strconv.Itoa(int(s.QualityG))
			row[8] = strconv.Itoa(int(s.QualityP))
			row[9] = strconv.FormatFloat(s.Value, 'f', 4, 64)
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("csv row: %w", err)
			}
		}
		return nil
	}
	for _, part := range []struct {
		name   string
		scores []Score
	}{
		{"DMG", sets.DMG},
		{"DDMG", sets.DDMG},
		{"DMI", sets.DMI},
		{"DDMI", sets.DDMI},
	} {
		if err := emit(part.name, part.scores); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("csv flush: %w", err)
	}
	return nil
}
