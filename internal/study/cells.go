package study

import "fpinterop/internal/par"

// This file holds the shared machinery for the per-device-pair analyses
// (EER matrix, FNMR matrices, Kendall table, shift tests): one-pass
// partitioning of score sets into (gallery device, probe device) cells,
// and a fan-out of independent cells across par.For's workers. Workers
// write only to their own preallocated result slots, so results stay
// deterministic regardless of scheduling.

// partitionByDevicePair groups raw score values by (gallery device,
// probe device) over the given sets. A nil keep accepts everything.
// A counting pass sizes every cell exactly, so the fill pass never
// regrows a slice; the returned cells are freshly allocated and safe
// for callers to sort in place.
func partitionByDevicePair(nDev int, keep func(Score) bool, sets ...[]Score) [][][]float64 {
	counts := make([]int, nDev*nDev)
	for _, set := range sets {
		for i := range set {
			s := &set[i]
			if keep != nil && !keep(*s) {
				continue
			}
			counts[s.DeviceG*nDev+s.DeviceP]++
		}
	}
	out := make([][][]float64, nDev)
	for i := range out {
		out[i] = make([][]float64, nDev)
		for j := range out[i] {
			out[i][j] = make([]float64, 0, counts[i*nDev+j])
		}
	}
	for _, set := range sets {
		for i := range set {
			s := &set[i]
			if keep != nil && !keep(*s) {
				continue
			}
			out[s.DeviceG][s.DeviceP] = append(out[s.DeviceG][s.DeviceP], s.Value)
		}
	}
	return out
}

// forEachCell runs fn over every (gallery, probe) device pair of an
// nDev×nDev matrix on par.For's workers and returns the error of the
// first failing cell in row-major order.
func forEachCell(nDev int, fn func(i, j int) error) error {
	return par.For(nil, nDev*nDev, func(_, k int) error {
		return fn(k/nDev, k%nDev)
	})
}
