package study

import (
	"strings"
	"testing"

	"fpinterop/internal/stats"
)

func TestEERMatrix(t *testing.T) {
	ds, sets := testStudy(t)
	m, err := EERMatrix(ds, sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.DeviceIDs) != 5 {
		t.Fatalf("matrix size %d", len(m.DeviceIDs))
	}
	// All EERs in [0, 0.5]; live-scan diagonal below the ink column mean
	// (Ross & Jain's within- vs cross-sensor EER gap).
	var diag, inkCol []float64
	d4, _ := ds.DeviceIndex("D4")
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if m.EER[i][j] < 0 || m.EER[i][j] > 0.5 {
				t.Fatalf("EER[%d][%d] = %v out of range", i, j, m.EER[i][j])
			}
		}
		diag = append(diag, m.EER[i][i])
		inkCol = append(inkCol, m.EER[i][d4])
	}
	if stats.Mean(diag) >= stats.Mean(inkCol) {
		t.Fatalf("diagonal EER %v not below ink column %v", stats.Mean(diag), stats.Mean(inkCol))
	}
	if out := RenderEERMatrix(m); !strings.Contains(out, "D3") {
		t.Fatal("rendering incomplete")
	}
}

func TestTable4AsymmetryNonNegative(t *testing.T) {
	ds, sets := testStudy(t)
	t4, err := Table4(ds, sets)
	if err != nil {
		t.Fatal(err)
	}
	a := Table4Asymmetry(t4)
	if a < 0 {
		t.Fatalf("asymmetry %v negative", a)
	}
	// The paper found the test is NOT symmetric; with distinct sample
	// pairings per orientation some asymmetry must exist.
	if a == 0 {
		t.Fatal("perfectly symmetric Table 4 is implausible")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ds, sets := testStudy(t)
	exps := Experiments()
	if len(exps) != 14 {
		t.Fatalf("registry has %d artifacts, want 14 (Tables 1-6 + Figures 1-5 + EER matrix + sharded 1:N + indexed 1:N)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.PaperClaim == "" {
			t.Fatalf("experiment %s missing metadata", e.ID)
		}
		out, err := e.Run(ds, sets)
		if err != nil {
			t.Fatalf("experiment %s: %v", e.ID, err)
		}
		if len(out) < 40 {
			t.Fatalf("experiment %s output too short: %q", e.ID, out)
		}
	}
	if _, ok := ExperimentByID("table5"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Fatal("phantom experiment")
	}
}

func TestShiftAnalysis(t *testing.T) {
	ds, sets := testStudy(t)
	a, err := Shift(ds, sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.GalleryIDs) != 4 {
		t.Fatalf("expected 4 live-scan galleries, got %d", len(a.GalleryIDs))
	}
	// Same-device scores dominate cross-device ones for every gallery:
	// effect size above chance across the board, and at least one device
	// significantly so even at test scale.
	significant := 0
	for i, id := range a.GalleryIDs {
		if a.Effect[i] < 0.5 {
			t.Fatalf("gallery %s: effect %v below chance", id, a.Effect[i])
		}
		if a.P[i].Log10 < -2 {
			significant++
		}
	}
	if significant == 0 {
		t.Fatal("no gallery shows a significant DMG/DDMG shift")
	}
	if out := RenderShift(a); len(out) < 80 {
		t.Fatal("rendering too short")
	}
}

func TestIdentificationCMC(t *testing.T) {
	ds, _ := testStudy(t)
	same, err := Identification(ds, "D0", "D0", 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if same.Probes != 20 || len(same.CMC) != 3 {
		t.Fatalf("shape wrong: %+v", same)
	}
	if same.CMC.RankOne() < 0.6 {
		t.Fatalf("same-device rank-1 %v too low", same.CMC.RankOne())
	}
	ink, err := Identification(ds, "D0", "D4", 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ink.CMC.RankOne() > same.CMC.RankOne() {
		t.Fatalf("ink probes identified better (%v) than same-device (%v)",
			ink.CMC.RankOne(), same.CMC.RankOne())
	}
	out := RenderIdentification([]IdentificationResult{same, ink})
	if len(out) < 80 {
		t.Fatal("rendering too short")
	}
	if _, err := Identification(ds, "DX", "D0", 5, 3); err == nil {
		t.Fatal("expected unknown-device error")
	}
	if _, err := Identification(ds, "D0", "DX", 5, 3); err == nil {
		t.Fatal("expected unknown-device error")
	}
}

func TestQualityByDevice(t *testing.T) {
	ds, _ := testStudy(t)
	q := QualityByDevice(ds)
	if len(q.DeviceIDs) != 5 {
		t.Fatalf("device count %d", len(q.DeviceIDs))
	}
	// Every impression accounted for.
	for d := range q.DeviceIDs {
		total := 0
		for _, c := range q.Counts[d] {
			total += c
		}
		if total != ds.NumSubjects()*SamplesPerDevice {
			t.Fatalf("device %d histogram covers %d impressions", d, total)
		}
	}
	// Ink measures worse than the best optical sensor.
	d0, _ := ds.DeviceIndex("D0")
	d4, _ := ds.DeviceIndex("D4")
	if q.Mean(d4) <= q.Mean(d0) {
		t.Fatalf("ink mean NFIQ %v not worse than optical %v", q.Mean(d4), q.Mean(d0))
	}
	if out := RenderQualityByDevice(q); len(out) < 100 {
		t.Fatal("rendering too short")
	}
}

func TestTable2Notation(t *testing.T) {
	ds, sets := testStudy(t)
	rows := Table2(ds, sets)
	if len(rows) != 4 {
		t.Fatalf("Table 2 has %d rows, want 4", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Subjects != ds.NumSubjects() {
			t.Fatalf("%s subjects %d", r.Name, r.Subjects)
		}
		if r.Samples != 2 {
			t.Fatalf("%s samples %d", r.Name, r.Samples)
		}
	}
	for _, want := range []string{"DMG", "DMI", "DDMG", "DDMI"} {
		if !names[want] {
			t.Fatalf("missing set %s", want)
		}
	}
	// DMG spans the four live-scan devices only (paper Table 3 row 1).
	for _, r := range rows {
		if r.Name == "DMG" && r.Devices != 4 {
			t.Fatalf("DMG devices %d, want 4", r.Devices)
		}
	}
	// Observed cardinalities must match Table 3, and medians separate
	// genuine sets from impostor sets.
	counts := Table3(sets)
	want := map[string]int{"DMG": counts.DMG, "DMI": counts.DMI, "DDMG": counts.DDMG, "DDMI": counts.DDMI}
	med := map[string]float64{}
	for _, r := range rows {
		if r.Observed != want[r.Name] {
			t.Fatalf("%s observed %d, want %d", r.Name, r.Observed, want[r.Name])
		}
		med[r.Name] = r.Median
	}
	if med["DMG"] <= med["DMI"] || med["DDMG"] <= med["DDMI"] {
		t.Fatalf("genuine medians %v/%v not above impostor medians %v/%v",
			med["DMG"], med["DDMG"], med["DMI"], med["DDMI"])
	}
	if out := RenderTable2(rows); len(out) < 100 {
		t.Fatal("rendering too short")
	}
}

func TestFigure2SeriesCounts(t *testing.T) {
	ds, sets := testStudy(t)
	f, err := Figure2(ds, sets, "D3")
	if err != nil {
		t.Fatal(err)
	}
	// Same-device series: one DMG score per subject. Cross-device: one
	// DDMG score per subject per probe device.
	n := ds.NumSubjects()
	for id, series := range f.SeriesByProbe {
		if len(series) != n {
			t.Fatalf("series %s has %d points, want %d", id, len(series), n)
		}
	}
}
