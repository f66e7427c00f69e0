package study

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The study pin is `interop-study -subjects 30 -dmi 1500 -ddmi 3000` at
// its default seed: testdata/study.golden.json is the -json report byte
// for byte, and testdata/study.scores.golden holds, per score set, its
// size and a SHA-256 of every raw score's Float64bits in order. Both
// were written by this test at 828766c, the parent of the commit that
// moved the study's fan-out onto package par, so unlike a determinism
// test they cannot drift together with the code they check.
// FPINTEROP_UPDATE_PINS=1 rewrites them instead, which is only ever
// right when the study's numbers are meant to change.
const (
	pinReport = "testdata/study.golden.json"
	pinScores = "testdata/study.scores.golden"
)

// TestStudyPin holds a study run to the pin; on a mismatch it names the
// first JSON path, or the score set, that differs.
func TestStudyPin(t *testing.T) {
	ds, err := BuildDataset(Config{Seed: 2013, Subjects: 30, MaxDMI: 1500, MaxDDMI: 3000})
	if err != nil {
		t.Fatal(err)
	}
	sets, err := GenerateScores(ds)
	if err != nil {
		t.Fatal(err)
	}
	report, err := BuildReport(ds, sets)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := report.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	gotScores := scoreDigests(sets)
	if os.Getenv("FPINTEROP_UPDATE_PINS") != "" {
		if err := os.WriteFile(pinReport, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinScores, []byte(gotScores), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want, err := os.ReadFile(pinReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: the report differs at %s", pinReport, firstJSONDiff(t, got.Bytes(), want))
	}
	wantScores, err := os.ReadFile(pinScores)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(gotScores, "\n"), strings.Split(string(wantScores), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s: raw scores differ\n got %q\nwant %q", pinScores, g, w)
		}
	}
}

// scoreDigests is one line per score set: name, size and the SHA-256 of
// its scores' Float64bits, big-endian, in order.
func scoreDigests(sets *ScoreSets) string {
	var b strings.Builder
	for _, set := range []struct {
		name   string
		scores []Score
	}{
		{"DMG", sets.DMG}, {"DDMG", sets.DDMG}, {"DMI", sets.DMI}, {"DDMI", sets.DDMI}, {"GenuineAll", sets.GenuineAll},
	} {
		h := sha256.New()
		var word [8]byte
		for _, s := range set.scores {
			binary.BigEndian.PutUint64(word[:], math.Float64bits(s.Value))
			h.Write(word[:])
		}
		fmt.Fprintf(&b, "%s %d %x\n", set.name, len(set.scores), h.Sum(nil))
	}
	return b.String()
}

// firstJSONDiff returns the path of the first value at which two JSON
// documents differ, visiting object keys in sorted order; numbers
// compare as written.
func firstJSONDiff(t *testing.T, got, want []byte) string {
	t.Helper()
	decode := func(data []byte) any {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	if path, ok := jsonDiff("$", decode(got), decode(want)); ok {
		return path
	}
	return "$ (same values, different bytes)"
}

func jsonDiff(path string, got, want any) (string, bool) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return path, true
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			if p, ok := jsonDiff(path+"."+k, g[k], w[k]); ok {
				return p, true
			}
		}
		return "", false
	case []any:
		g, ok := got.([]any)
		if !ok {
			return path, true
		}
		for i := range min(len(g), len(w)) {
			if p, ok := jsonDiff(fmt.Sprintf("%s[%d]", path, i), g[i], w[i]); ok {
				return p, true
			}
		}
		if len(g) != len(w) {
			return fmt.Sprintf("%s (length %d, want %d)", path, len(g), len(w)), true
		}
		return "", false
	default:
		if !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("%s (%v, want %v)", path, got, want), true
		}
		return "", false
	}
}
