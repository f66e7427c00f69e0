package match

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// capture returns one sensor impression's template.
func capture(tb testing.TB, dev *sensor.Profile, s *population.Subject, sample int) *minutiae.Template {
	tb.Helper()
	imp, err := dev.CaptureSubject(s, sample, sensor.CaptureOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return imp.Template
}

// goldenCase is one labelled comparison of the score pin.
type goldenCase struct {
	label string
	g, p  *minutiae.Template
}

// goldenCases is the fixed seeded set behind testdata/scores.golden:
// raw study templates over the full D0–D4 gallery × probe device matrix
// and the repository benchmark's shape (codec-quantised D0 gallery, D0
// and D1 probes), genuine and impostor — 2,016 comparisons.
func goldenCases(tb testing.TB) []goldenCase {
	const subjects = 24
	cohort := population.NewCohort(rng.New(2013).Child("golden"), population.CohortOptions{Size: subjects})
	devs := make([]*sensor.Profile, 5)
	for d := range devs {
		dev, ok := sensor.ProfileByID(fmt.Sprintf("D%d", d))
		if !ok {
			tb.Fatalf("sensor profile D%d missing", d)
		}
		devs[d] = dev
	}
	var cases []goldenCase
	raw := make([][5][2]*minutiae.Template, subjects)
	for s := range raw {
		for d, dev := range devs {
			for sample := 0; sample < 2; sample++ {
				raw[s][d][sample] = capture(tb, dev, cohort.Subjects[s], sample)
			}
		}
	}
	for s := range raw {
		o := (s + 1) % subjects
		for dg := range devs {
			for dp := range devs {
				cases = append(cases,
					goldenCase{fmt.Sprintf("study/genuine/s%d/D%d-D%d", s, dg, dp), raw[s][dg][0], raw[s][dp][1]},
					goldenCase{fmt.Sprintf("study/impostor/s%d-s%d/D%d-D%d", s, o, dg, dp), raw[s][dg][0], raw[o][dp][0]})
			}
		}
	}
	enrolled := make([]*minutiae.Template, subjects)
	for s := range enrolled {
		enrolled[s] = quantise(tb, capture(tb, devs[0], cohort.Subjects[s], 0))
	}
	for s := range enrolled {
		for dp := 0; dp < 2; dp++ {
			probe := quantise(tb, capture(tb, devs[dp], cohort.Subjects[s], 1))
			cases = append(cases, goldenCase{fmt.Sprintf("codec/genuine/s%d/D0-D%d", s, dp), enrolled[s], probe})
			for k := 1; k <= 16; k++ {
				o := (s + k) % subjects
				cases = append(cases, goldenCase{fmt.Sprintf("codec/impostor/s%d-s%d/D0-D%d", o, s, dp), enrolled[o], probe})
			}
		}
	}
	return cases
}

// goldenLine renders what the pin holds of one result: the score's
// bits, the pair count and an FNV-1a digest of the pair list in order.
func goldenLine(label string, res Result) string {
	h := fnv.New64a()
	for _, pr := range res.Pairs {
		fmt.Fprintf(h, "%d,%d;", pr[0], pr[1])
	}
	return fmt.Sprintf("%s %016x %d %016x\n", label, math.Float64bits(res.Score), res.Matched, h.Sum64())
}

// TestGoldenScores compares the session path, prepared and not, with
// testdata/scores.golden — written by this test at 97ef5b2, the parent
// of the commit that rebuilt the kernel, so unlike referenceMatch it
// cannot drift together with the code it checks.
// FPINTEROP_UPDATE_PINS=1 rewrites it instead, which is only ever right
// when scores are meant to change.
func TestGoldenScores(t *testing.T) {
	const path = "testdata/scores.golden"
	m := &HoughMatcher{}
	sess := NewSession(m)
	var got []string
	for _, c := range goldenCases(t) {
		res, err := sess.Match(c.g, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		line := goldenLine(c.label, res)
		res, err = sess.MatchPrepared(m.Prepare(c.g), c.p)
		if err != nil {
			t.Fatalf("%s: prepared: %v", c.label, err)
		}
		if prepared := goldenLine(c.label, res); prepared != line {
			t.Fatalf("prepared and unprepared paths differ:\n%s%s", prepared, line)
		}
		got = append(got, line)
	}
	if os.Getenv("FPINTEROP_UPDATE_PINS") != "" {
		if err := os.WriteFile(path, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.SplitAfter(string(data), "\n")
	want = want[:len(want)-1] // the piece after the last newline
	if len(got) != len(want) {
		t.Fatalf("%d comparisons, the pin has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d differs from the pin\n got %swant %s", i+1, got[i], want[i])
		}
	}
}

// scanFixture is the repository benchmark's shape: n codec-quantised D0
// enrollments and, for the first mated of them, a second-sample probe
// from D0 and one from D1.
func scanFixture(tb testing.TB, n, mated int) (enrolled, probes []*minutiae.Template) {
	tb.Helper()
	cohort := population.NewCohort(rng.New(2013).Child("bench"), population.CohortOptions{Size: n})
	d0, _ := sensor.ProfileByID("D0")
	d1, _ := sensor.ProfileByID("D1")
	for i, s := range cohort.Subjects {
		enrolled = append(enrolled, quantise(tb, capture(tb, d0, s, 0)))
		if i < mated {
			probes = append(probes, quantise(tb, capture(tb, d0, s, 1)), quantise(tb, capture(tb, d1, s, 1)))
		}
	}
	return enrolled, probes
}

// BenchmarkScan1k is one exhaustive 1:N search on one core: a probe
// against 1,000 prepared enrollments, the loop gallery.matchAll runs on
// each worker. One op is one scan; the 32 probes take turns, so use a
// -benchtime that is a multiple of 32x to compare like with like.
func BenchmarkScan1k(b *testing.B) {
	enrolled, probes := scanFixture(b, 1000, 16)
	m := &HoughMatcher{}
	prepared := make([]*Prepared, len(enrolled))
	for i, tpl := range enrolled {
		prepared[i] = m.Prepare(tpl)
	}
	sess := NewSession(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Bind(probes[i%len(probes)])
		for _, g := range prepared {
			if _, err := sess.MatchBound(g); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestPreparedFootprint pins what an enrollment's preparation costs in
// memory: the benchmark's rss_kb_per_enrollment carries one per
// enrollment, so a faster grid must not buy its speed with bytes. The
// bound is this test's own measurement with the 128-byte Prepared
// header: 1933.6 bytes in 3 allocations.
func TestPreparedFootprint(t *testing.T) {
	const parentBytes, parentAllocs = 1933.6, 3.0
	enrolled, _ := scanFixture(t, 200, 0)
	minutiaeTotal := 0
	for _, tpl := range enrolled {
		minutiaeTotal += len(tpl.Minutiae)
	}
	m := &HoughMatcher{}
	kept := make([]*Prepared, len(enrolled))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, tpl := range enrolled {
		kept[i] = m.Prepare(tpl)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	n := float64(len(enrolled))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.1f minutiae per template: %.1f bytes in %.1f allocations per Prepared (parent: %.1f in %.1f)",
		float64(minutiaeTotal)/n, bytes, allocs, parentBytes, parentAllocs)
	if bytes > parentBytes || allocs > parentAllocs {
		t.Fatalf("a Prepared grew: %.1f bytes in %.1f allocations, parent %.1f in %.1f", bytes, allocs, parentBytes, parentAllocs)
	}
}
