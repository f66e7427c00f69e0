package match

// Differential tests: the optimized Session path (flat accumulator,
// spatial grid, bounded heap, pair arena) must return results
// bit-identical to the reference matcher on arbitrary inputs — same
// score, pair list, transform, and residual. Any divergence is a bug in
// the optimization, never an acceptable approximation.

import (
	"fmt"
	"math"
	"testing"

	"fpinterop/internal/geom"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// offsetTemplate builds a template whose minutiae cluster far from the
// origin inside a huge capture window, pushing translation bins toward
// the edges of packKey's offset 16-bit range.
func offsetTemplate(seed uint64, n int, winPx int, offX, offY float64) *minutiae.Template {
	src := rng.New(seed)
	tpl := &minutiae.Template{Width: winPx, Height: winPx, DPI: 500}
	for i := 0; i < n; i++ {
		tpl.Minutiae = append(tpl.Minutiae, minutiae.Minutia{
			X:       offX + src.Float64()*300,
			Y:       offY + src.Float64()*300,
			Angle:   src.Float64() * 2 * math.Pi,
			Kind:    minutiae.Ending,
			Quality: 50,
		})
	}
	return tpl
}

// feq is bit-equality except that NaN equals NaN (non-finite inputs
// legitimately produce NaN scores on both paths).
func feq(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func sameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if !feq(want.Score, got.Score) {
		t.Fatalf("%s: score %v != reference %v", label, got.Score, want.Score)
	}
	if want.Matched != got.Matched {
		t.Fatalf("%s: matched %d != reference %d", label, got.Matched, want.Matched)
	}
	if !feq(want.MeanResidual, got.MeanResidual) {
		t.Fatalf("%s: residual %v != reference %v", label, got.MeanResidual, want.MeanResidual)
	}
	if !feq(want.Transform.Theta, got.Transform.Theta) || !feq(want.Transform.T.X, got.Transform.T.X) ||
		!feq(want.Transform.T.Y, got.Transform.T.Y) || want.Transform.S != got.Transform.S {
		t.Fatalf("%s: transform %+v != reference %+v", label, got.Transform, want.Transform)
	}
	if len(want.Pairs) != len(got.Pairs) {
		t.Fatalf("%s: %d pairs != reference %d", label, len(got.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		if want.Pairs[i] != got.Pairs[i] {
			t.Fatalf("%s: pair %d = %v != reference %v", label, i, got.Pairs[i], want.Pairs[i])
		}
	}
}

// quantise sends a template through the binary codec, the way every
// template the service matches has been: integer pixel coordinates and
// angles in units of 2π/65536, i.e. exact d² ties and votes on bin edges.
func quantise(tb testing.TB, tpl *minutiae.Template) *minutiae.Template {
	tb.Helper()
	data, err := minutiae.Marshal(tpl)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := minutiae.Unmarshal(data)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// latticeTemplate puts minutiae on a 7 px lattice with angles on the
// 15° rotation-bin edges: matched against itself or a lattice shift of
// itself the refined transform is exact, so squared distances tie in
// bulk (49, 98, 196 = DistTol² on the gate) and every angle difference
// sits on a bin edge.
func latticeTemplate(seed uint64, n int, shiftX, shiftY int) *minutiae.Template {
	src := rng.New(seed)
	tpl := &minutiae.Template{Width: 330, Height: 400, DPI: 500}
	for i := 0; i < n; i++ {
		tpl.Minutiae = append(tpl.Minutiae, minutiae.Minutia{
			X:       float64(35 + 7*(src.Intn(12)+shiftX)),
			Y:       float64(42 + 7*(src.Intn(16)+shiftY)),
			Angle:   float64(src.Intn(24)) * (2 * math.Pi / 24),
			Kind:    minutiae.Ending,
			Quality: 50,
		})
	}
	return tpl
}

// diffCorpus returns (gallery, probe) pairs spanning the edge cases the
// hot path has to survive: empty and single-minutia templates, genuine
// transformed pairs, impostors, identical templates, offset clusters
// that stress the packed-key translation range, and what the service
// actually matches — codec-quantised sensor captures, D0 galleries
// against D0 and D1 probes, genuine and impostor.
func diffCorpus(tb testing.TB) [][2]*minutiae.Template {
	var corpus [][2]*minutiae.Template
	empty := &minutiae.Template{Width: 300, Height: 300, DPI: 500}
	one := syntheticTemplate(901, 1)
	two := syntheticTemplate(902, 2)
	corpus = append(corpus,
		[2]*minutiae.Template{empty, syntheticTemplate(1, 20)},
		[2]*minutiae.Template{syntheticTemplate(2, 20), empty},
		[2]*minutiae.Template{one, one},
		[2]*minutiae.Template{one, syntheticTemplate(903, 30)},
		[2]*minutiae.Template{two, two},
	)
	// Random impostor pairs at several sizes.
	for i := 0; i < 25; i++ {
		a := syntheticTemplate(uint64(100+i), 5+i*2)
		b := syntheticTemplate(uint64(500+i), 60-i*2)
		corpus = append(corpus, [2]*minutiae.Template{a, b})
	}
	// Genuine pairs: rigid motions of the same template.
	for i := 0; i < 15; i++ {
		base := syntheticTemplate(uint64(700+i), 35)
		tr := geom.Rigid{
			Theta: float64(i-7) * 0.12,
			T:     geom.Point{X: float64(i*4 - 30), Y: float64(25 - i*3)},
			S:     1,
		}
		corpus = append(corpus, [2]*minutiae.Template{base, transformTemplate(base, tr)})
	}
	// Self matches.
	for i := 0; i < 5; i++ {
		tpl := syntheticTemplate(uint64(800+i), 10+i*12)
		corpus = append(corpus, [2]*minutiae.Template{tpl, tpl})
	}
	// Large windows with far-offset clusters: translation bins in the
	// thousands, exercising packKey's signed-offset packing well past
	// the small-template regime.
	for i := 0; i < 4; i++ {
		g := offsetTemplate(uint64(950+i), 25, 6000, 5500, 200)
		p := offsetTemplate(uint64(960+i), 25, 6000, 100, 5400)
		corpus = append(corpus, [2]*minutiae.Template{g, p})
	}
	// Genuine pair across a big offset (tests negative translation bins).
	far := offsetTemplate(970, 30, 6000, 5000, 5000)
	corpus = append(corpus, [2]*minutiae.Template{far, transformTemplate(far, geom.Rigid{Theta: 0.3, T: geom.Point{X: -40, Y: 25}, S: 1})})
	// Everything above once more on the codec's lattice.
	for _, pair := range corpus[5:] {
		corpus = append(corpus, [2]*minutiae.Template{quantise(tb, pair[0]), quantise(tb, pair[1])})
	}
	// Exact ties: a lattice against itself, against lattice shifts of
	// itself, and against another lattice.
	for i := 0; i < 4; i++ {
		l := latticeTemplate(uint64(980+i), 40, 0, 0)
		corpus = append(corpus,
			[2]*minutiae.Template{l, l},
			[2]*minutiae.Template{l, latticeTemplate(uint64(980+i), 40, 2, 0)},
			[2]*minutiae.Template{l, latticeTemplate(uint64(980+i), 40, -1, 2)},
			[2]*minutiae.Template{l, latticeTemplate(uint64(990+i), 40, 0, 0)})
	}
	// Sensor captures through the codec: each subject's D0 enrollment
	// against its own second D0 and D1 samples and the next subject's.
	const subjects = 12
	cohort := population.NewCohort(rng.New(2013).Child("diff"), population.CohortOptions{Size: subjects})
	d0, _ := sensor.ProfileByID("D0")
	d1, _ := sensor.ProfileByID("D1")
	enrolled := make([]*minutiae.Template, subjects)
	for i, subj := range cohort.Subjects {
		enrolled[i] = quantise(tb, capture(tb, d0, subj, 0))
	}
	for i, subj := range cohort.Subjects {
		for _, dev := range []*sensor.Profile{d0, d1} {
			probe := quantise(tb, capture(tb, dev, subj, 1))
			corpus = append(corpus,
				[2]*minutiae.Template{enrolled[i], probe},
				[2]*minutiae.Template{enrolled[(i+1)%subjects], probe})
		}
	}
	return corpus
}

func TestSessionMatchesReferenceBitForBit(t *testing.T) {
	m := &HoughMatcher{}
	sess := NewSession(m)
	for _, pair := range diffCorpus(t) {
		g, p := pair[0], pair[1]
		want, err := m.referenceMatch(g, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Match(g, p)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "session", want, got)

		// The prepared path and the public pooled path must agree too.
		prep := m.Prepare(g)
		gotPrep, err := sess.MatchPrepared(prep, p)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "prepared", want, gotPrep)

		gotPub, err := m.Match(g, p)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "pooled", want, gotPub)
	}
}

func TestSessionMatchesReferenceNonDefaultParams(t *testing.T) {
	// Non-default tolerances change bin geometry; identity must hold for
	// any parameterization, including ones that make every pair vote
	// into few cells.
	for _, m := range []*HoughMatcher{
		{DistTol: 7, AngleTol: 0.2, RotBins: 48, ShiftBin: 8, Candidates: 3},
		{DistTol: 30, RotBins: 8, ShiftBin: 40, Candidates: 10},
		{DistTol: 2, ShiftBin: 2},
		// Pathological parameterizations: a negative ShiftBin flips the
		// window arithmetic (must fall back to the reference), a
		// negative DistTol still admits pairs within its magnitude
		// (grid cells must be sized by |DistTol|).
		{ShiftBin: -16},
		{DistTol: -100, ShiftBin: 4},
	} {
		sess := NewSession(m)
		for i := 0; i < 10; i++ {
			g := syntheticTemplate(uint64(40+i), 30)
			p := syntheticTemplate(uint64(60+i), 30)
			want, _ := m.referenceMatch(g, p)
			got, _ := sess.Match(g, p)
			sameResult(t, "params", want, got)
		}
	}
}

func TestSessionScratchSurvivesReuse(t *testing.T) {
	// One long-lived session takes the whole corpus three times over in
	// shuffled order, alternating its entry points, and must not leak
	// state between matches (a cell left non-zero, a stale grid, used-set
	// or probe table): every result equals the reference computed alone.
	m := &HoughMatcher{}
	sess := NewSession(m)
	corpus := diffCorpus(t)
	want := make([]Result, len(corpus))
	prepared := make([]*Prepared, len(corpus))
	for i, pair := range corpus {
		var err error
		if want[i], err = m.referenceMatch(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
		prepared[i] = m.Prepare(pair[0])
	}
	src := rng.New(4242)
	for pass := 0; pass < 3; pass++ {
		for step, i := range shuffled(src, len(corpus)) {
			g, p := corpus[i][0], corpus[i][1]
			var got Result
			var err error
			switch (pass + step) % 3 {
			case 0:
				got, err = sess.Match(g, p)
			case 1:
				got, err = sess.MatchPrepared(prepared[i], p)
			case 2:
				sess.Bind(p)
				got, err = sess.MatchBound(prepared[i])
			}
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("pass %d pair %d", pass, i), want[i], got)
		}
	}

	// A scan: one probe bound once against every gallery of the corpus,
	// in shuffled order, with the session the passes above left behind.
	for _, pi := range []int{0, 7, 31, 48, len(corpus) - 3, len(corpus) - 1} {
		probe := corpus[pi][1]
		sess.Bind(probe)
		for _, gi := range shuffled(src, len(corpus)) {
			want, err := m.referenceMatch(corpus[gi][0], probe)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.MatchBound(prepared[gi])
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("probe %d bound, gallery %d", pi, gi), want, got)
		}
	}
}

func TestMatchBoundWithoutProbe(t *testing.T) {
	m := &HoughMatcher{}
	sess := NewSession(m)
	prep := m.Prepare(syntheticTemplate(1, 10))
	if _, err := sess.MatchBound(prep); err != ErrNilTemplate {
		t.Fatalf("no probe bound: %v", err)
	}
	sess.Bind(syntheticTemplate(2, 10))
	if _, err := sess.MatchBound(prep); err != nil {
		t.Fatal(err)
	}
	sess.Bind(nil)
	if _, err := sess.MatchBound(prep); err != ErrNilTemplate {
		t.Fatalf("after unbinding: %v", err)
	}
	// A pooled session comes back with nothing bound.
	pooled := AcquireSession(m)
	pooled.Bind(syntheticTemplate(2, 10))
	pooled.Release()
	pooled = AcquireSession(m)
	defer pooled.Release()
	if _, err := pooled.MatchBound(prep); err != ErrNilTemplate {
		t.Fatalf("pooled session kept its probe: %v", err)
	}
}

func TestPreparedParamsMismatchRebuilds(t *testing.T) {
	// A Prepared built for one parameterization used under another must
	// produce the session's parameterization, not the preparation's.
	base := &HoughMatcher{}
	other := &HoughMatcher{DistTol: 5, ShiftBin: 4}
	g := syntheticTemplate(11, 30)
	p := syntheticTemplate(12, 30)
	prep := base.Prepare(g)
	sess := NewSession(other)
	want, _ := other.referenceMatch(g, p)
	got, err := sess.MatchPrepared(prep, p)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "mismatched prep", want, got)
}

func TestSessionSteadyStateZeroAllocs(t *testing.T) {
	// The acceptance bar: a warmed session performs zero heap
	// allocations per match, prepared or not.
	m := &HoughMatcher{}
	sess := NewSession(m)
	g := syntheticTemplate(21, 45)
	p := transformTemplate(g, geom.Rigid{Theta: 0.2, T: geom.Point{X: 12, Y: -9}, S: 1})
	prep := m.Prepare(g)
	imp := syntheticTemplate(99, 40)
	// Warm the scratch across the shapes the loop will see.
	for _, probe := range []*minutiae.Template{p, imp} {
		if _, err := sess.Match(g, probe); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.MatchPrepared(prep, probe); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := sess.Match(g, p); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Session.Match allocates %v per op in steady state", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := sess.MatchPrepared(prep, imp); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Session.MatchPrepared allocates %v per op in steady state", avg)
	}
}

func TestAccumulatorOverflowFallsBackToReference(t *testing.T) {
	// A window too large for the flat accumulator must still match (via
	// the reference fallback), not panic or truncate.
	g := offsetTemplate(31, 15, 1<<20, 1000000, 1000000)
	p := offsetTemplate(32, 15, 1<<20, 100, 100)
	m := &HoughMatcher{}
	sess := NewSession(m)
	want, err := m.referenceMatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Match(g, p)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "fallback", want, got)
}

// shuffled returns 0..n-1 in an order drawn from src.
func shuffled(src *rng.Source, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	src.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

func TestPrepareNilAndEmpty(t *testing.T) {
	m := &HoughMatcher{}
	if m.Prepare(nil) != nil {
		t.Fatal("Prepare(nil) should return nil")
	}
	empty := &minutiae.Template{Width: 100, Height: 100, DPI: 500}
	prep := m.Prepare(empty)
	if prep == nil || prep.tpl != empty {
		t.Fatal("Prepare(empty) should return a usable preparation")
	}
	sess := NewSession(m)
	res, err := sess.MatchPrepared(prep, syntheticTemplate(1, 10))
	if err != nil || res.Score != 0 {
		t.Fatalf("empty prepared match: %v %v", res.Score, err)
	}
	if _, err := sess.MatchPrepared(nil, syntheticTemplate(1, 10)); err == nil {
		t.Fatal("nil prepared should error")
	}
}

// fuzzSession lives as long as the fuzzing process: every input runs on
// it after all the others, so state that survives a match (a cell left
// non-zero, a stale probe table) shows up as a later input's mismatch.
var fuzzSession = NewSession(nil)

func FuzzSessionMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(20), uint8(30), int16(0), int16(0), uint8(0))
	f.Add(uint64(3), uint64(3), uint8(1), uint8(1), int16(500), int16(-500), uint8(0))
	f.Add(uint64(7), uint64(11), uint8(0), uint8(45), int16(3000), int16(3000), uint8(0))
	f.Add(uint64(13), uint64(17), uint8(64), uint8(64), int16(-200), int16(2500), uint8(0))
	f.Add(uint64(19), uint64(23), uint8(35), uint8(0), int16(-40), int16(25), uint8(1))
	f.Add(uint64(29), uint64(31), uint8(50), uint8(0), int16(300), int16(-120), uint8(4))
	f.Add(uint64(37), uint64(41), uint8(40), uint8(44), int16(0), int16(0), uint8(2))
	f.Add(uint64(43), uint64(43), uint8(48), uint8(48), int16(-7), int16(14), uint8(5))
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, nA, nB uint8, offX, offY int16, mode uint8) {
		// Bounded geometry: coordinates stay small enough for the flat
		// accumulator path (the regime the fuzz is meant to stress).
		ox := float64(offX) + 4000
		oy := float64(offY) + 4000
		g := offsetTemplate(seedA, int(nA%70), 9000, ox, oy)
		var p *minutiae.Template
		switch mode % 3 {
		case 0: // impostor
			p = offsetTemplate(seedB, int(nB%70), 9000, 8000-ox, 8000-oy)
		case 1: // genuine: a rigid motion of the gallery
			p = transformTemplate(g, geom.Rigid{
				Theta: float64(seedB%1257)/200 - math.Pi,
				T:     geom.Point{X: float64(offX) / 8, Y: float64(offY) / 8},
				S:     1,
			})
		case 2: // genuine by a whole-pixel shift: the refined transform is exact
			p = transformTemplate(g, geom.Rigid{T: geom.Point{X: float64(offX % 64), Y: float64(offY % 64)}, S: 1})
		}
		if mode%6 >= 3 && g.Validate() == nil && p.Validate() == nil {
			// The codec's lattice: integer coordinates, quantised angles.
			// (A rotated angle can round to 2π itself, which the codec
			// refuses and the matcher must still take.)
			g, p = quantise(t, g), quantise(t, p)
		}
		m := &HoughMatcher{}
		want, err1 := m.referenceMatch(g, p)
		sess := NewSession(m)
		got, err2 := sess.Match(g, p)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error divergence: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		sameResult(t, "fuzz", want, got)
		got, err := fuzzSession.MatchPrepared(m.Prepare(g), p)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "fuzz, long-lived session", want, got)
	})
}

// sensorPair captures a realistic cross-device genuine pair.
func sensorPair(tb testing.TB) (g, p *minutiae.Template) {
	tb.Helper()
	cohort := population.NewCohort(rng.New(2013), population.CohortOptions{Size: 1})
	d0, _ := sensor.ProfileByID("D0")
	d1, _ := sensor.ProfileByID("D1")
	return capture(tb, d0, cohort.Subjects[0], 0), capture(tb, d1, cohort.Subjects[0], 0)
}

// BenchmarkReferenceMatch times the oracle on a cross-device genuine
// pair: what a comparison that falls back to it costs.
func BenchmarkReferenceMatch(b *testing.B) {
	g, p := sensorPair(b)
	m := &HoughMatcher{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.referenceMatch(g, p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNonFiniteCoordinatesStayTotal(t *testing.T) {
	// NaN passes Template.Validate (its comparisons are all false), so
	// the optimized path must stay total over non-finite geometry by
	// falling back to the reference matcher instead of panicking.
	m := &HoughMatcher{}
	sess := NewSession(m)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := syntheticTemplate(61, 20)
		p := syntheticTemplate(62, 20)
		g.Minutiae[3].X = bad
		p.Minutiae[5].Angle = bad
		want, err := m.referenceMatch(g, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Match(g, p)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "non-finite", want, got)
		prep := m.Prepare(g)
		gotPrep, err := sess.MatchPrepared(prep, p)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "non-finite prepared", want, gotPrep)
		// A clean pair afterwards proves no scratch corruption.
		clean := syntheticTemplate(63, 20)
		want2, _ := m.referenceMatch(clean, p)
		_ = want2
		got2, err := sess.Match(clean, syntheticTemplate(64, 20))
		if err != nil {
			t.Fatal(err)
		}
		want3, _ := m.referenceMatch(clean, syntheticTemplate(64, 20))
		sameResult(t, "after non-finite", want3, got2)
	}
}

func TestWideWindowPackKeyWrapFallsBack(t *testing.T) {
	// Two gallery clusters whose translation bins differ by 2^16: the
	// reference map merges their votes under one wrapped packKey while a
	// flat accumulator would keep them distinct, so windows over 2^16
	// bins per axis must take the reference path. x-span 2^16*16 px with
	// a tiny y-span keeps the cell count under maxAccCells, exercising
	// exactly the wrap guard rather than the size guard.
	g := &minutiae.Template{Width: 1 << 21, Height: 400, DPI: 500}
	p := &minutiae.Template{Width: 400, Height: 400, DPI: 500}
	src := rng.New(7)
	for i := 0; i < 6; i++ {
		x := 50 + src.Float64()*100
		y := 50 + src.Float64()*100
		a := src.Float64() * 2 * math.Pi
		g.Minutiae = append(g.Minutiae,
			minutiae.Minutia{X: x, Y: y, Angle: a, Kind: minutiae.Ending, Quality: 50},
			minutiae.Minutia{X: x + float64(1<<16)*16, Y: y, Angle: a, Kind: minutiae.Ending, Quality: 50})
		p.Minutiae = append(p.Minutiae,
			minutiae.Minutia{X: x, Y: y, Angle: a, Kind: minutiae.Ending, Quality: 50})
	}
	m := &HoughMatcher{}
	sess := NewSession(m)
	want, err := m.referenceMatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Match(g, p)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "wide window", want, got)
}

func TestMisconfiguredMatcherNeverPanics(t *testing.T) {
	// A matcher built from bad configuration must answer or fail, not take
	// the process down: every field at a negative, NaN and ±Inf value (the
	// counts at negatives; {Candidates: -1} and {RotBins: -3} used to
	// panic in run and configure). Whatever the session path returns is
	// what the reference returns, and a pooled session that served a
	// misconfigured matcher serves the default one unharmed.
	g := syntheticTemplate(71, 30)
	p := transformTemplate(g, geom.Rigid{Theta: 0.2, T: geom.Point{X: 10, Y: 5}, S: 1})
	imp := syntheticTemplate(72, 30)
	var matchers []*HoughMatcher
	for _, bad := range []float64{-1, -14, math.NaN(), math.Inf(1), math.Inf(-1)} {
		matchers = append(matchers,
			&HoughMatcher{DistTol: bad}, &HoughMatcher{AngleTol: bad}, &HoughMatcher{ShiftBin: bad})
	}
	for _, bad := range []int{-1, -3, math.MinInt} {
		matchers = append(matchers, &HoughMatcher{RotBins: bad}, &HoughMatcher{Candidates: bad})
	}
	def := &HoughMatcher{}
	wantDef, err := def.referenceMatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matchers {
		label := fmt.Sprintf("%+v", *m)
		sess := NewSession(m)
		for _, probe := range []*minutiae.Template{p, imp} {
			want, errWant := m.referenceMatch(g, probe)
			got, errGot := sess.Match(g, probe)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("%s: error divergence: %v vs %v", label, errWant, errGot)
			}
			if errWant == nil {
				sameResult(t, label, want, got)
			}
			if got, err := sess.MatchPrepared(m.Prepare(g), probe); err == nil && errWant == nil {
				sameResult(t, label+" prepared", want, got)
			}
			if got, err := m.Match(g, probe); err == nil && errWant == nil {
				sameResult(t, label+" pooled", want, got)
			}
		}
		got, err := def.Match(g, p)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "default after "+label, wantDef, got)
	}
	if p := (&HoughMatcher{RotBins: -3, Candidates: -1}).params(); p.RotBins != 24 || p.Candidates != 6 {
		t.Fatalf("non-positive counts resolve to %d bins, %d candidates; want the defaults", p.RotBins, p.Candidates)
	}
}

func TestOutOfRangeAnglesStayTotal(t *testing.T) {
	// Template.Validate demands angles in [0, 2π), but Match takes
	// unvalidated templates too: an angle far outside would put the
	// rotation bin past either end of the probe's table. Such templates
	// take the reference path, on either side.
	m := &HoughMatcher{}
	sess := NewSession(m)
	for _, bad := range []float64{-20, 2 * math.Pi, 7, 1e300, -1e300} {
		for side := 0; side < 2; side++ {
			g := syntheticTemplate(81, 25)
			p := syntheticTemplate(82, 25)
			[]*minutiae.Template{g, p}[side].Minutiae[4].Angle = bad
			want, err := m.referenceMatch(g, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.Match(g, p)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("angle %v side %d", bad, side), want, got)
			gotPrep, err := sess.MatchPrepared(m.Prepare(g), p)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("angle %v side %d prepared", bad, side), want, gotPrep)
		}
	}
}

func TestOversizedTemplateFallsBack(t *testing.T) {
	// The grid indexes minutiae with 16 bits; a template past that is
	// left gridless and matched by the reference, not truncated.
	g := &minutiae.Template{Width: 2000, Height: 2000, DPI: 500}
	src := rng.New(5)
	for i := 0; i <= math.MaxUint16; i++ {
		g.Minutiae = append(g.Minutiae, minutiae.Minutia{
			X: src.Float64() * 2000, Y: src.Float64() * 2000, Angle: src.Float64() * 2 * math.Pi,
			Kind: minutiae.Ending, Quality: 50,
		})
	}
	p := syntheticTemplate(91, 3)
	m := &HoughMatcher{}
	prep := m.Prepare(g)
	if prep.cols != 0 {
		t.Fatalf("%d minutiae got a %dx%d grid", len(g.Minutiae), prep.cols, prep.rows)
	}
	want, err := m.referenceMatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSession(m).MatchPrepared(prep, p)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "oversized", want, got)
}

func TestGridStaysSmall(t *testing.T) {
	// However spread out the minutiae, the grid falls back to coarser
	// cells, never to more of them: at most 15×15, about four per
	// minutia.
	m := &HoughMatcher{}
	for _, tpl := range []*minutiae.Template{
		syntheticTemplate(1, 3),
		syntheticTemplate(2, 50),
		syntheticTemplate(3, 400),
		offsetTemplate(4, 60, 16000, 0, 0),
		{Width: 1 << 30, Height: 1 << 30, DPI: 500, Minutiae: []minutiae.Minutia{
			{X: 0, Y: 0, Kind: minutiae.Ending}, {X: 1 << 29, Y: 3, Kind: minutiae.Ending},
			{X: 17, Y: 1 << 29, Kind: minutiae.Ending}, {X: 1 << 28, Y: 1 << 28, Kind: minutiae.Ending}}},
	} {
		g := m.Prepare(tpl)
		n := len(tpl.Minutiae)
		if g.cols == 0 || int(g.cols)*int(g.rows) > min(4*n, 225) {
			t.Fatalf("%d minutiae: %dx%d grid", n, g.cols, g.rows)
		}
		if len(g.grid) != int(g.cols)*int(g.rows)+1+n {
			t.Fatalf("%d minutiae: grid slab of %d entries for %dx%d cells", n, len(g.grid), g.cols, g.rows)
		}
	}
}

// TestMatchPreparedOnceDetached: the one-shot pooled path agrees with
// the reference, and each Result keeps its Pairs after the pooled
// session is reused for the next comparison.
func TestMatchPreparedOnceDetached(t *testing.T) {
	m := &HoughMatcher{}
	var prev, prevCopy Result
	for i, pair := range diffCorpus(t) {
		g, p := pair[0], pair[1]
		want, err := m.referenceMatch(g, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MatchPreparedOnce(m, m.Prepare(g), p)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("pair %d", i), want, got)
		if i > 0 {
			sameResult(t, fmt.Sprintf("pair %d after reuse", i-1), prevCopy, prev)
		}
		prev, prevCopy = got, got
		prevCopy.Pairs = append([][2]int(nil), got.Pairs...)
	}
}
