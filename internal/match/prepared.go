package match

import (
	"math"

	"fpinterop/internal/minutiae"
)

// Prepared is a gallery-side template preprocessed for the Hough
// matcher hot path: the minutiae reduced to their geometry (24-byte
// points feed the voting loop sequentially instead of striding over the
// Minutia struct), the bounding box that sizes the translation
// accumulator window, the capture window, and a spatial bucket grid (CSR
// layout) that replaces the O(n·m) pairing scan with a 2×2 neighbourhood
// probe. A comparison reads nothing else: a scan never touches the
// template's own minutiae.
//
// A Prepared is immutable after Prepare returns and safe for concurrent
// use by any number of Sessions. Galleries build one per enrollment so
// repeated probes against the same template skip the rebuild.
type Prepared struct {
	tpl *minutiae.Template
	// tol is the DistTol the grid was sized for — the one matcher
	// parameter a preparation depends on.
	tol float64

	// pts is the geometry of tpl.Minutiae, in template order.
	pts []point

	// Minutiae bounding box (undefined when the template is empty) and
	// the capture window.
	minX, maxX, minY, maxY float64
	width, height          float64

	// Spatial bucket grid over the minutiae, CSR layout in one slab:
	// grid[:cols*rows+1] are the cell offsets and grid[cols*rows+1:] the
	// n minutia indices, so the minutiae of cell c (row-major cells,
	// ascending index within a cell) are items[grid[c]:grid[c+1]]. Cells
	// are wider than 2·|DistTol| on each axis, so every minutia within
	// DistTol of a point lies in the 2×2 block of cells whose shared
	// corner is nearest the point. cols == 0 marks a gridless
	// preparation (see build).
	grid               []uint16
	cols, rows         int32
	invCellX, invCellY float64
}

// point is the geometry of one minutia — all the matcher reads of it.
type point struct{ x, y, angle float64 }

// gridDim is the cell budget per axis for n minutiae: about four cells
// per minutia and never more than 15×15 — finer cells stop paying once
// most are empty, and the cap keeps a preparation smaller than the
// template it indexes however spread out the minutiae are (coarser
// cells, never more of them).
func gridDim(n int) float64 {
	return math.Floor(math.Sqrt(float64(min(4*n, 15*15))))
}

// Prepare preprocesses a gallery-side template for repeated matching
// under this matcher's parameters. The returned value aliases tpl;
// callers that mutate templates after enrollment must re-Prepare.
func (m *HoughMatcher) Prepare(tpl *minutiae.Template) *Prepared {
	if tpl == nil {
		return nil
	}
	g := &Prepared{}
	g.build(m.params().DistTol, tpl)
	return g
}

// validAngle reports whether a is a direction the voting loop's single
// wrap normalizes into [0, 2π) — what Template.Validate demands, and
// false for NaN and ±Inf.
func validAngle(a float64) bool {
	return a >= 0 && a < 2*math.Pi
}

// build (re)fills g from tpl, reusing g's slabs — Sessions call it on
// their scratch Prepared to keep the unprepared path allocation-free.
func (g *Prepared) build(tol float64, tpl *minutiae.Template) {
	g.tpl = tpl
	g.tol = tol
	g.width, g.height = float64(tpl.Width), float64(tpl.Height)
	g.cols, g.rows = 0, 0
	ms := tpl.Minutiae
	n := len(ms)
	g.pts = grow(g.pts, n)
	if n == 0 {
		return
	}
	g.minX, g.maxX = ms[0].X, ms[0].X
	g.minY, g.maxY = ms[0].Y, ms[0].Y
	regular := true
	for i, m := range ms {
		g.pts[i] = point{m.X, m.Y, m.Angle}
		regular = regular && isFinite(m.X) && isFinite(m.Y) && validAngle(m.Angle)
		if m.X < g.minX {
			g.minX = m.X
		}
		if m.X > g.maxX {
			g.maxX = m.X
		}
		if m.Y < g.minY {
			g.minY = m.Y
		}
		if m.Y > g.maxY {
			g.maxY = m.Y
		}
	}

	if !regular || n > math.MaxUint16 {
		// Non-finite coordinates (NaN slips through Template.Validate —
		// its comparisons are all false) cannot size a grid, angles
		// outside [0, 2π) would index the rotation tables out of range,
		// and the grid's offsets are 16 bits wide; leave the preparation
		// gridless and let the session fall back to the reference
		// matcher, which is total over arbitrary templates.
		return
	}

	// Cell sizes: the pairing tolerance diameter 2·|DistTol| (the 2×2
	// coverage guarantee — the distance gate compares squared values, so
	// a negative tolerance still admits pairs within its magnitude) or
	// the axis's share of the cell budget, whichever is wider, plus a
	// hair: the margin keeps last-ulp rounding of a cell coordinate from
	// moving a minutia exactly DistTol away out of the block, and from
	// adding a cell past the budget.
	dim := gridDim(n)
	cellX := max(2*math.Abs(tol), (g.maxX-g.minX)/dim)
	cellY := max(2*math.Abs(tol), (g.maxY-g.minY)/dim)
	cellX += cellX / 1024
	cellY += cellY / 1024
	if !(cellX > 0) || !isFinite(cellX) || !(cellY > 0) || !isFinite(cellY) {
		// Degenerate tolerance (NaN, or zero with a point-like bounding
		// box): no usable grid; the session falls back to the reference
		// matcher.
		return
	}
	g.invCellX = 1 / cellX
	g.invCellY = 1 / cellY
	spanX := (g.maxX - g.minX) * g.invCellX
	spanY := (g.maxY - g.minY) * g.invCellY
	if !(spanX >= 0 && spanX < dim && spanY >= 0 && spanY < dim) {
		// Unreachable while 1/cell rounds sanely (the margin above puts
		// each span under dim); the bound is what keeps the slab small
		// and the conversions below defined, so it is checked rather than
		// assumed.
		return
	}
	cols, rows := int(spanX)+1, int(spanY)+1
	g.cols, g.rows = int32(cols), int32(rows)

	cells := cols * rows
	g.grid = grow(g.grid, cells+1+n)
	start, items := g.grid[:cells+1], g.grid[cells+1:]
	clear(start)
	// Counting sort into CSR: count, prefix-sum, place (which shifts the
	// offsets one cell forward), then shift back.
	for _, pt := range g.pts {
		start[g.cellOf(pt)+1]++
	}
	for c := 1; c <= cells; c++ {
		start[c] += start[c-1]
	}
	for i, pt := range g.pts {
		c := g.cellOf(pt)
		items[start[c]] = uint16(i)
		start[c]++
	}
	copy(start[1:], start[:cells])
	start[0] = 0
}

// cellOf maps an in-bounds minutia position to its grid cell.
func (g *Prepared) cellOf(pt point) int {
	cx := int((pt.x - g.minX) * g.invCellX)
	cy := int((pt.y - g.minY) * g.invCellY)
	return cy*int(g.cols) + cx
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// grow returns s with length n, reallocating (and dropping the old
// contents) only when the capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
