package study

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func TestBuildReportAndJSON(t *testing.T) {
	ds, sets := testStudy(t)
	r, err := BuildReport(ds, sets)
	if err != nil {
		t.Fatal(err)
	}
	if r.Subjects != ds.NumSubjects() || r.Seed != ds.Config.Seed {
		t.Fatal("report metadata wrong")
	}
	if r.Table3.DMG != len(sets.DMG) {
		t.Fatal("table 3 wrong")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Round-trip through encoding/json to prove the structure is valid
	// and self-consistent.
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Table3 != r.Table3 {
		t.Fatal("JSON round trip lost Table 3")
	}
	if len(back.Table4Log10P) != len(r.Table4Rows) {
		t.Fatal("JSON round trip lost Table 4")
	}
	// Diagonal p-values survive even though they underflow float64 as
	// probabilities.
	if back.Table4Log10P[0][0] > -20 {
		t.Fatalf("diagonal log10 p = %v, expected extreme", back.Table4Log10P[0][0])
	}
	total := 0
	for _, n := range back.Figure1Ages {
		total += n
	}
	if total != r.Subjects {
		t.Fatal("age histogram incomplete after round trip")
	}
}

func TestWriteScoresCSV(t *testing.T) {
	ds, sets := testStudy(t)
	var buf bytes.Buffer
	if err := WriteScoresCSV(&buf, ds, sets); err != nil {
		t.Fatal(err)
	}
	rd := csv.NewReader(&buf)
	rows, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 1 + len(sets.DMG) + len(sets.DDMG) + len(sets.DMI) + len(sets.DDMI)
	if len(rows) != wantRows {
		t.Fatalf("CSV has %d rows, want %d", len(rows), wantRows)
	}
	if rows[0][0] != "set" || rows[0][9] != "score" {
		t.Fatalf("header wrong: %v", rows[0])
	}
	// First data row is a DMG score with a device ID in column 3.
	if rows[1][0] != "DMG" || !strings.HasPrefix(rows[1][3], "D") {
		t.Fatalf("first row wrong: %v", rows[1])
	}
}
