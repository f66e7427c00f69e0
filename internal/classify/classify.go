// Package classify implements fingerprint pattern classification from
// orientation fields via the Poincaré index — the standard technique for
// locating singular points (cores and deltas) and assigning the Henry
// pattern class (arch, tented arch, left/right loop, whorl). The paper's
// feature-set discussion (Section II) notes that resolution, scanning
// area and sensing technology all perturb the extracted feature set;
// pattern class is the coarsest such feature and a prerequisite for
// classification-based gallery partitioning in large identification
// systems like US-VISIT.
package classify

import (
	"math"

	"fpinterop/internal/imgproc"
	"fpinterop/internal/ridge"
)

// SingularPoint is a detected core or delta.
type SingularPoint struct {
	// X, Y are pixel coordinates (block centres).
	X, Y int
	// Index is the Poincaré index: +1/2 for a core, −1/2 for a delta.
	Index float64
}

// IsCore reports whether the point is a core (+1/2).
func (s SingularPoint) IsCore() bool { return s.Index > 0 }

// poincareIndex computes the Poincaré index of the block at (bx, by) by
// summing orientation differences around its 8-neighbour ring. For a
// smooth field the sum is 0; around a core it is +π, around a delta −π.
func poincareIndex(of *imgproc.OrientationField, bx, by int) float64 {
	// Ring of 8 neighbours, counter-clockwise.
	ring := [8][2]int{
		{bx - 1, by - 1}, {bx, by - 1}, {bx + 1, by - 1}, {bx + 1, by},
		{bx + 1, by + 1}, {bx, by + 1}, {bx - 1, by + 1}, {bx - 1, by},
	}
	sum := 0.0
	for i := 0; i < 8; i++ {
		a := of.Theta[ring[i][1]][ring[i][0]]
		b := of.Theta[ring[(i+1)%8][1]][ring[(i+1)%8][0]]
		d := b - a
		// Orientation differences live in (−π/2, π/2].
		for d > math.Pi/2 {
			d -= math.Pi
		}
		for d <= -math.Pi/2 {
			d += math.Pi
		}
		sum += d
	}
	return sum / (2 * math.Pi)
}

// DetectSingularPoints scans an orientation field for cores and deltas.
// Blocks with coherence below minCoherence are skipped (singularities
// genuinely have low coherence at the exact centre, so the test applies
// to the ring's surroundings being real ridge structure — we use the mean
// coherence of the 8-ring).
func DetectSingularPoints(of *imgproc.OrientationField, minCoherence float64) []SingularPoint {
	var out []SingularPoint
	for by := 1; by < of.BH-1; by++ {
		for bx := 1; bx < of.BW-1; bx++ {
			// Mean ring coherence.
			ringCoh := 0.0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					ringCoh += of.Coherence[by+dy][bx+dx]
				}
			}
			if ringCoh/8 < minCoherence {
				continue
			}
			idx := poincareIndex(of, bx, by)
			if math.Abs(idx-0.5) < 0.1 {
				out = append(out, SingularPoint{
					X:     bx*of.BlockSize + of.BlockSize/2,
					Y:     by*of.BlockSize + of.BlockSize/2,
					Index: 0.5,
				})
			} else if math.Abs(idx+0.5) < 0.1 {
				out = append(out, SingularPoint{
					X:     bx*of.BlockSize + of.BlockSize/2,
					Y:     by*of.BlockSize + of.BlockSize/2,
					Index: -0.5,
				})
			}
		}
	}
	return mergeNearby(out, 2*max(1, of.BlockSize))
}

// mergeNearby collapses clusters of same-sign detections (a singularity
// often fires in adjacent blocks) into their centroid.
func mergeNearby(pts []SingularPoint, radius int) []SingularPoint {
	used := make([]bool, len(pts))
	var out []SingularPoint
	for i := range pts {
		if used[i] {
			continue
		}
		cluster := []int{i}
		used[i] = true
		for j := i + 1; j < len(pts); j++ {
			if used[j] || pts[j].Index != pts[i].Index {
				continue
			}
			dx := pts[j].X - pts[i].X
			dy := pts[j].Y - pts[i].Y
			if dx*dx+dy*dy <= radius*radius {
				cluster = append(cluster, j)
				used[j] = true
			}
		}
		var sx, sy int
		for _, k := range cluster {
			sx += pts[k].X
			sy += pts[k].Y
		}
		out = append(out, SingularPoint{
			X: sx / len(cluster), Y: sy / len(cluster), Index: pts[i].Index,
		})
	}
	return out
}

// ClassifyCounts assigns a Henry class from singular point counts and the
// core/delta geometry: whorls have two cores (or two deltas), loops one
// of each with lateral delta displacement deciding the side, tented
// arches a vertically aligned core/delta pair, and arches none.
func ClassifyCounts(points []SingularPoint) ridge.Class {
	var cores, deltas []SingularPoint
	for _, p := range points {
		if p.IsCore() {
			cores = append(cores, p)
		} else {
			deltas = append(deltas, p)
		}
	}
	switch {
	case len(cores) >= 2 || len(deltas) >= 2:
		return ridge.Whorl
	case len(cores) == 1 && len(deltas) == 1:
		dx := deltas[0].X - cores[0].X
		dy := deltas[0].Y - cores[0].Y
		if abs(dx) < abs(dy)/2 {
			return ridge.TentedArch
		}
		// Image coordinates: delta to the right of the core means ridges
		// loop in from the left.
		if dx > 0 {
			return ridge.LeftLoop
		}
		return ridge.RightLoop
	case len(cores) == 1 || len(deltas) == 1:
		// Partial view: one singularity visible. A lone core most often
		// belongs to a loop whose delta fell outside the capture window;
		// side unknown, so report tented arch as the conservative class.
		return ridge.TentedArch
	default:
		return ridge.Arch
	}
}

// ClassifyImage runs the full pipeline on a fingerprint image: estimate
// and smooth the orientation field, detect singular points, classify.
func ClassifyImage(img *imgproc.Image, minCoherence float64) (ridge.Class, []SingularPoint) {
	of := imgproc.EstimateOrientation(img, 16)
	of.Smooth(2)
	pts := DetectSingularPoints(of, minCoherence)
	return ClassifyCounts(pts), pts
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
