package match

import (
	"math"
	"slices"
	"sync"

	"fpinterop/internal/geom"
	"fpinterop/internal/minutiae"
)

// maxAccCells bounds the flat Hough accumulator (128 MiB of int32 at
// the limit). Templates from real sensors stay thousands of times below
// it; a pathological template whose window would exceed the bound falls
// back to the sparse reference matcher, which computes the identical
// result in O(pairs) memory.
const maxAccCells = 1 << 25

// Session holds every piece of scratch state the Hough matcher hot path
// needs — the bound probe's tables, flat vote accumulator, touched-cell
// list, top-K heap, pairing candidate buffers, used-sets, and the pairs
// arena — so a steady-state match performs zero heap allocations. A
// Session is NOT safe for concurrent use; run one per goroutine (gallery
// scans, study workers, and service handlers each hold their own), or
// borrow one from the shared pool with AcquireSession/Release.
//
// A scan is one probe against many galleries: Bind the probe once, then
// call MatchBound per prepared gallery. Match and MatchPrepared bind
// their probe argument on every call.
//
// Results returned by Session methods alias session-owned memory:
// Result.Pairs is valid only until the session's next match. Callers
// that retain pairs must copy them (HoughMatcher.Match does).
type Session struct {
	// The bound probe (see Bind) and everything a comparison needs of
	// it, computed once per binding.
	probe *minutiae.Template
	// regular: finite coordinates, angles in [0, 2π). Only then are the
	// tables below filled; anything else goes to the reference matcher.
	regular bool
	pts     []point // the probe's geometry, in template order
	pw, ph  float64 // capture window
	// rot holds the probe coordinates rotated to every rotation bin's
	// centre, [probe index][rot bin], so the voting loop rotates by table
	// lookup; rotBox is their bounding box per bin, which bounds the
	// translations a gallery can vote for in that bin.
	rot    []xy
	rotBox [rotBins]box

	// Voting scratch.
	votes   []int32        // flat accumulator, all-zero between matches
	touched []int32        // flat indices of the cells voted for this match
	planes  [rotBins]plane // per rotation bin: where its window starts
	top     []uint64       // bounded min-heap of packed cells, then sorted

	// Gallery-side scratch: the unprepared path's preparation and the
	// template the reference fallback rebuilds.
	scratch    Prepared
	refGallery minutiae.Template

	// Pairing scratch.
	cands        []pairCand
	usedG, usedQ []bool
	arena        [][2]int // backing storage for every Result.Pairs this match
}

type xy struct{ x, y float64 }

type box struct{ minX, maxX, minY, maxY float64 }

// plane locates one rotation bin's translation window in the flat
// accumulator: the cell of translation bin (tx, ty) is off + tx*tyBins
// + ty, and (txMin, tyMin) is the window's first bin.
type plane struct {
	off          int
	txMin, tyMin int32
}

// pairCand is one tolerance-gated pairing candidate. Distances are kept
// squared; the square root is taken only for the pairs that survive
// greedy selection.
type pairCand struct {
	d2   float64
	g, q int32
}

// NewSession returns a dedicated session. Its argument is ignored: the
// matcher has one operating point, so every session is the same.
// Dedicated sessions suit long-lived single-goroutine loops; for ad-hoc
// concurrent use prefer AcquireSession.
func NewSession(*HoughMatcher) *Session {
	return &Session{}
}

var sessionPool = sync.Pool{New: func() any { return &Session{} }}

// AcquireSession borrows a session from the shared pool, with no probe
// bound. Return it with Release when done; any Result obtained from it
// becomes invalid at that point.
func AcquireSession() *Session {
	return sessionPool.Get().(*Session)
}

// maxRetainedCells bounds the accumulator capacity a pooled session
// keeps between uses (16 MiB of int32). One spread-out template may
// legitimately demand a window up to maxAccCells for its own match,
// but letting every session retain that forever would pin
// GOMAXPROCS × 128 MiB after a handful of outliers; typical sensor
// templates need well under a megabyte.
const maxRetainedCells = 1 << 22

// Release returns the session to the shared pool, dropping its
// reference to the caller's probe.
func (s *Session) Release() {
	if cap(s.votes) > maxRetainedCells {
		s.votes = nil
	}
	if cap(s.touched) > maxRetainedCells {
		s.touched = nil
	}
	s.probe = nil
	sessionPool.Put(s)
}

// detachResult copies the scratch-aliasing state (Pairs) out of a
// session Result so it stays valid after the session is reused or
// released. Every acquire-match-release wrapper must go through this.
func detachResult(res Result) Result {
	if len(res.Pairs) > 0 {
		res.Pairs = append([][2]int(nil), res.Pairs...)
	}
	return res
}

// MatchPreparedOnce runs a single comparison against a prepared
// gallery template on a pooled session and returns a detached Result
// that stays valid indefinitely. Hot loops should hold a Session, Bind
// the probe and call MatchBound directly instead.
func MatchPreparedOnce(gallery *Prepared, probe *minutiae.Template) (Result, error) {
	s := AcquireSession()
	res, err := s.MatchPrepared(gallery, probe)
	res = detachResult(res)
	s.Release()
	return res, err
}

// Bind makes probe the session's probe for the MatchBound calls that
// follow, computing everything a comparison needs of it — its geometry,
// the rotation tables, their per-bin extents — once instead of once per
// gallery. The probe must not be modified while it is bound; it stays
// bound until the next Bind, Match, MatchPrepared or Release. Binding
// nil unbinds.
func (s *Session) Bind(probe *minutiae.Template) {
	if probe == nil {
		s.probe = nil
		return
	}
	s.bind(probe)
}

//fpvet:hotpath
func (s *Session) bind(probe *minutiae.Template) {
	pr := probe.Minutiae
	s.probe = probe
	s.pw, s.ph = float64(probe.Width), float64(probe.Height)
	s.pts = grow(s.pts, len(pr))
	// Non-finite probe geometry would index the accumulator with
	// garbage and an angle outside [0, 2π) the rotation tables; the
	// reference matcher is total over arbitrary floats. A finite squared
	// radius also keeps every rotated coordinate finite.
	regular := true
	for j, b := range pr {
		s.pts[j] = point{b.X, b.Y, b.Angle}
		regular = regular && b.X*b.X+b.Y*b.Y < math.Inf(1) && validAngle(b.Angle)
	}
	s.regular = regular
	if !regular {
		return
	}

	// Rotated coordinates and their extent, one rotation bin at a time.
	// The expressions mirror referenceMatch exactly.
	s.rot = grow(s.rot, len(pr)*rotBins)
	for rb := range s.rotBox {
		c, sn := cosTab[rb], sinTab[rb]
		bb := box{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)}
		for j, b := range s.pts {
			r := xy{b.x*c - b.y*sn, b.x*sn + b.y*c}
			s.rot[j*rotBins+rb] = r
			bb.minX, bb.maxX = min(bb.minX, r.x), max(bb.maxX, r.x)
			bb.minY, bb.maxY = min(bb.minY, r.y), max(bb.maxY, r.y)
		}
		s.rotBox[rb] = bb
	}
}

// Match compares gallery and probe like HoughMatcher.Match, reusing the
// session's scratch. Result.Pairs aliases session memory and is valid
// only until the next call on this session.
func (s *Session) Match(gallery, probe *minutiae.Template) (Result, error) {
	if gallery == nil || probe == nil {
		return Result{}, ErrNilTemplate
	}
	if len(gallery.Minutiae) == 0 || len(probe.Minutiae) == 0 {
		return Result{}, nil
	}
	s.bind(probe)
	s.scratch.build(gallery)
	return s.run(&s.scratch)
}

// MatchPrepared is Match with the gallery-side preprocessing already
// done (see HoughMatcher.Prepare): Bind then MatchBound.
func (s *Session) MatchPrepared(gallery *Prepared, probe *minutiae.Template) (Result, error) {
	s.Bind(probe)
	return s.MatchBound(gallery)
}

// MatchBound compares a prepared gallery template with the bound probe
// (ErrNilTemplate when there is none).
func (s *Session) MatchBound(gallery *Prepared) (Result, error) {
	if gallery == nil || s.probe == nil {
		return Result{}, ErrNilTemplate
	}
	if len(gallery.pts) == 0 || len(s.pts) == 0 {
		return Result{}, nil
	}
	return s.run(gallery)
}

// run is the optimized hot path: the bound probe against one prepared
// gallery. It must return results bit-identical to referenceMatch (the
// differential tests enforce this): identical vote binning arithmetic,
// identical top-K selection order (votes descending, packed key
// ascending), identical candidate ordering in the pairing, and the same
// refinement and best-result tie-breaks.
//
//fpvet:hotpath
func (s *Session) run(g *Prepared) (Result, error) {
	// Irregular probes and gridless preparations (non-finite
	// coordinates, angles outside [0, 2π), more minutiae than the grid
	// indexes) go to the reference matcher, which is total over
	// arbitrary floats.
	if !s.regular || g.cols == 0 {
		return s.reference(g)
	}
	n, np := len(g.pts), len(s.pts)

	// --- Accumulator windows, one per rotation bin: a translation is a
	// gallery coordinate minus a rotated probe coordinate, and rounding
	// is monotone, so the extreme bins of bin rb come from the gallery
	// bounding box against the probe's rotated extent in rb — exactly, no
	// guard bins. Every plane gets the largest window's shape. Bins
	// outside int16 (where the reference's packKey wraps, merging bins
	// 2^16 apart that a flat layout would keep distinct, and stops
	// ordering like the flat index) and non-finite bounds go to the
	// reference; the conversions below are defined only inside this
	// guard.
	planes := &s.planes
	txBins, tyBins := 0, 0
	for rb := range planes {
		bb := &s.rotBox[rb]
		txLo := math.Floor((g.minX - bb.maxX) * invShift)
		txHi := math.Floor((g.maxX - bb.minX) * invShift)
		tyLo := math.Floor((g.minY - bb.maxY) * invShift)
		tyHi := math.Floor((g.maxY - bb.minY) * invShift)
		if !(txLo >= math.MinInt16 && txHi <= math.MaxInt16 && tyLo >= math.MinInt16 && tyHi <= math.MaxInt16) {
			return s.reference(g)
		}
		planes[rb].txMin, planes[rb].tyMin = int32(txLo), int32(tyLo)
		txBins = max(txBins, int(txHi-txLo)+1)
		tyBins = max(tyBins, int(tyHi-tyLo)+1)
	}
	planeSize := txBins * tyBins
	if planeSize > maxAccCells/rotBins {
		return s.reference(g)
	}
	cells := rotBins * planeSize
	for rb := range planes {
		pl := &planes[rb]
		pl.off = rb*planeSize - int(pl.txMin)*tyBins - int(pl.tyMin)
	}
	if cap(s.votes) < cells {
		s.votes = make([]int32, cells) // zeroed; the invariant below keeps it so
	}
	votes := s.votes[:cells]
	// A match touches at most one cell per vote and at most every cell;
	// vote wants one spare entry.
	s.touched = grow(s.touched, min(n*np, cells)+1)

	nt := s.vote(g, votes, s.touched, planes, tyBins)

	// --- Top-K cells via a bounded min-heap, restoring the all-zero
	// accumulator invariant in the same pass. Planes ascend with the
	// rotation bin and a plane is tx-major, so inside the int16 guard the
	// flat index orders cells exactly as the packed key does: a cell is
	// one word, votes above the complemented index, larger is better
	// (more votes, then the smaller key), and keys are recovered only for
	// the survivors.
	top := s.top[:0]
	for _, idx := range s.touched[:nt] {
		w := uint64(votes[idx])<<32 | uint64(^uint32(idx))
		votes[idx] = 0
		if len(top) < candidates {
			top = append(top, w)
			siftUp(top, len(top)-1)
		} else if w > top[0] {
			top[0] = w
			siftDown(top, 0)
		}
	}
	// Best first: the reference's sorted scan, votes descending, packed
	// key ascending.
	slices.Sort(top)
	slices.Reverse(top)
	s.top = top

	// --- Pairing scratch: the arena must hold every scoring round's
	// pairs of this match without reallocating, so Results handed out
	// earlier in the loop stay intact.
	if need := 2 * len(top) * min(n, np); cap(s.arena) < need {
		s.arena = make([][2]int, 0, need)
	}
	s.arena = s.arena[:0]
	s.usedG = grow(s.usedG, n)
	s.usedQ = grow(s.usedQ, np)

	best := Result{}
	for _, w := range top {
		idx := int(^uint32(w))
		rot := idx / planeSize
		rem := idx - rot*planeSize
		tx := rem/tyBins + int(planes[rot].txMin)
		ty := rem%tyBins + int(planes[rot].tyMin)
		tr := geom.Rigid{
			Theta: (float64(rot) + 0.5) * rotStep,
			T: geom.Point{
				X: (float64(tx) + 0.5) * shiftBin,
				Y: (float64(ty) + 0.5) * shiftBin,
			},
			S: 1,
		}
		// The bin centre's cosine and sine are the table's: same
		// expression, same bits.
		res := s.scorePairing(g, tr, cosTab[rot], sinTab[rot])
		// One refinement round: re-estimate the transform from the pairs
		// and re-pair. Helps recover from coarse accumulator bins.
		if res.Matched >= 3 {
			if refined, ok := estimateRigid(g.pts, s.pts, res.Pairs); ok {
				res2 := s.scorePairing(g, refined, math.Cos(refined.Theta), math.Sin(refined.Theta))
				if res2.Score > res.Score {
					res = res2
				}
			}
		}
		if res.Score > best.Score || (best.Matched == 0 && res.Matched > 0) {
			best = res
		}
	}
	return best, nil
}

// vote fills the accumulator: every (probe, gallery) pair proposes the
// rigid transform mapping the probe minutia exactly onto the gallery
// one. It returns how many cells it touched; touched[:n] lists them in
// first-vote order so reset cost is O(votes), not O(window), and touched
// needs room for one entry more than can be touched. Everything the loop
// reads is a local or a per-probe-minutia slice, so no store to the
// accumulator forces a reload.
//
//fpvet:hotpath
func (s *Session) vote(g *Prepared, votes, touched []int32, planes *[rotBins]plane, tyBins int) int {
	const twoPi = 2 * math.Pi
	gallery := g.pts
	const lastRot = rotBins - 1
	wrap := [2]float64{0, twoPi}
	nt := 0
	for j, b := range s.pts {
		rot := s.rot[j*rotBins : (j+1)*rotBins]
		for _, a := range gallery {
			// Normalize into [0, 2π): add 2π when the sign bit is set
			// (adding zero is exact, and a negative zero lands in bin 0
			// either way), without a branch the predictor cannot learn.
			dTheta := a.angle - b.angle
			dTheta += wrap[math.Float64bits(dTheta)>>63]
			if dTheta >= twoPi {
				dTheta -= twoPi
			}
			rb := min(int(dTheta/rotStep), lastRot)
			r := rot[rb]
			tx := int(math.Floor((a.x - r.x) * invShift))
			ty := int(math.Floor((a.y - r.y) * invShift))
			idx := planes[rb].off + tx*tyBins + ty
			// Written every time, kept only on a cell's first vote: the
			// store is cheaper than a branch on the count.
			v := votes[idx]
			touched[nt] = int32(idx)
			if v == 0 {
				nt++
			}
			votes[idx] = v + 1
		}
	}
	return nt
}

// scorePairing pairs minutiae under the transform tr (unit scale; c0
// and s0 are the cosine and sine of its rotation) and scores the
// pairing, probing the gallery grid 2×2 instead of scanning every
// gallery minutia and counting the overlap (see overlapDenom, whose
// per-point expressions these are) in the same pass. Pairs are appended
// to the session arena.
//
//fpvet:hotpath
func (s *Session) scorePairing(g *Prepared, tr geom.Rigid, c0, s0 float64) Result {
	gallery, probe := g.pts, s.pts
	cols, rows := int(g.cols), int(g.rows)
	start, items := g.grid[:cols*rows+1], g.grid[cols*rows+1:]
	minX, minY, invCellX, invCellY := g.minX, g.minY, g.invCellX, g.invCellY
	fcols, frows := float64(cols+1), float64(rows+1)
	gw, gh := float64(g.width), float64(g.height)
	tX, tY, theta := tr.T.X, tr.T.Y, tr.Theta

	cands := s.cands[:0]
	pIn := 0
	for j, b := range probe {
		tx := b.x*c0 - b.y*s0 + tX
		ty := b.x*s0 + b.y*c0 + tY
		if tx >= 0 && tx < gw && ty >= 0 && ty < gh {
			pIn++
		}
		// The 2×2 block of cells around the nearest cell corner: cells
		// cx-1 and cx, rows cy-1 and cy.
		ux := (tx-minX)*invCellX + 0.5
		uy := (ty-minY)*invCellY + 0.5
		if !(ux >= 0 && ux < fcols && uy >= 0 && uy < frows) {
			// The block misses the grid (or is not a number): nothing
			// within tolerance.
			continue
		}
		cx, cy := int(ux), int(uy)
		lo, hi := max(cx-1, 0), min(cx, cols-1)
		ta := b.angle + theta
		for row := max(cy-1, 0); row <= min(cy, rows-1); row++ {
			// Row-major CSR: the row's two cells are one contiguous item
			// range.
			for _, gi := range items[start[row*cols+lo]:start[row*cols+hi+1]] {
				a := &gallery[gi]
				dx := tx - a.x
				dy := ty - a.y
				d2 := dx*dx + dy*dy
				if d2 > distTol*distTol {
					continue
				}
				if angleDiff(ta, a.angle) > angleTol {
					continue
				}
				cands = append(cands, pairCand{d2: d2, g: int32(gi), q: int32(j)})
			}
		}
	}
	s.cands = cands
	sortPairCands(cands)
	usedG := s.usedG[:len(gallery)]
	usedQ := s.usedQ[:len(probe)]
	clear(usedG)
	clear(usedQ)
	arena := s.arena
	first := len(arena)
	sumD := 0.0
	for _, c := range cands {
		if usedG[c.g] || usedQ[c.q] {
			continue
		}
		usedG[c.g] = true
		usedQ[c.q] = true
		arena = append(arena, [2]int{int(c.g), int(c.q)})
		sumD += math.Sqrt(c.d2)
	}
	s.arena = arena
	res := Result{Transform: tr}
	if matched := len(arena) - first; matched > 0 {
		res.Matched = matched
		res.Pairs = arena[first:len(arena):len(arena)]
		res.MeanResidual = sumD / float64(matched)
	}
	if res.Matched < 2 {
		return res // scores zero whatever the overlap
	}

	// Gallery minutiae inside the probe window under the inverse
	// transform: geom.Rigid.Invert at unit scale, with the trig it would
	// recompute taken from c0 and s0 (cosine is even and sine odd, bit
	// for bit).
	ic, is := c0, -s0
	itX := -tX*ic - -tY*is
	itY := -tX*is + -tY*ic
	pw, ph := s.pw, s.ph
	gIn := 0
	for _, a := range gallery {
		x := a.x*ic - a.y*is + itX
		y := a.x*is + a.y*ic + itY
		if x >= 0 && x < pw && y >= 0 && y < ph {
			gIn++
		}
	}
	res.Score = scoreFromPairing(res.Matched, res.MeanResidual, distTol, flooredDenom(gIn, pIn, len(gallery), len(probe)))
	return res
}

// sortPairCands orders candidates by squared distance with (gallery,
// probe) index tie-breaks — the same total order the reference sort
// produces, since x ↦ x² is monotone.
//
//fpvet:hotpath
func sortPairCands(cands []pairCand) {
	slices.SortFunc(cands, func(a, b pairCand) int {
		if a.d2 != b.d2 {
			if a.d2 < b.d2 {
				return -1
			}
			return 1
		}
		if a.g != b.g {
			return int(a.g - b.g)
		}
		return int(a.q - b.q)
	})
}

// siftUp and siftDown maintain the top-K min-heap: the root is the
// worst cell kept.
//
//fpvet:hotpath
func siftUp(h []uint64, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[i] >= h[parent] {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

//fpvet:hotpath
func siftDown(h []uint64, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		w := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			w = r
		}
		if h[w] >= h[i] {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// reference is the fallback for anything the flat path cannot index:
// the oracle on the template g holds, rebuilt into session scratch.
func (s *Session) reference(g *Prepared) (Result, error) {
	g.TemplateInto(&s.refGallery)
	return referenceMatch(&s.refGallery, s.probe)
}
