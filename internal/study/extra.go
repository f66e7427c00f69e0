package study

import (
	"fmt"
	"math"
	"sort"

	"fpinterop/internal/stats"
)

// EERMatrixData holds per-device-pair equal error rates — the summary
// metric Ross & Jain used for the cross-sensor case study the paper's
// related-work section quotes (EER 23.13% across optical/capacitive
// sensors vs ~6–10% within one sensor).
type EERMatrixData struct {
	DeviceIDs []string
	// EER[i][j] is the equal error rate enrolling on device i, verifying
	// on device j.
	EER [][]float64
}

// EERMatrix computes per-device-pair equal error rates from the dense
// genuine set and the impostor sets. Each cell's partition is sorted
// once into a stats.ScoreDist (the EER itself is then a single merge
// sweep), and the independent cells run on the study's bounded worker
// pool.
func EERMatrix(ds *Dataset, sets *ScoreSets) (EERMatrixData, error) {
	nDev := ds.NumDevices()
	genuine := partitionByDevicePair(nDev, nil, sets.GenuineAll)
	impostor := partitionByDevicePair(nDev, nil, sets.DMI, sets.DDMI)
	out := EERMatrixData{EER: make([][]float64, nDev)}
	for i := 0; i < nDev; i++ {
		out.DeviceIDs = append(out.DeviceIDs, ds.Devices[i].ID)
		out.EER[i] = make([]float64, nDev)
	}
	err := forEachCell(nDev, ds.Config.Parallelism, func(i, j int) error {
		if len(genuine[i][j]) == 0 || len(impostor[i][j]) == 0 {
			return nil
		}
		// The partitions are cell-private, so sort them in place rather
		// than copying them first.
		sort.Float64s(genuine[i][j])
		sort.Float64s(impostor[i][j])
		rate, _, err := stats.ScoreDistFromSorted(genuine[i][j], impostor[i][j]).EER()
		if err != nil {
			return fmt.Errorf("EER cell (%d,%d): %w", i, j, err)
		}
		out.EER[i][j] = rate
		return nil
	})
	if err != nil {
		return EERMatrixData{}, err
	}
	return out, nil
}

// RenderEERMatrix prints the EER matrix.
func RenderEERMatrix(m EERMatrixData) string {
	out := "Equal error rate per (gallery device, probe device)\n    "
	for _, id := range m.DeviceIDs {
		out += fmt.Sprintf(" %8s", id)
	}
	out += "\n"
	for i, id := range m.DeviceIDs {
		out += fmt.Sprintf("%-4s", id)
		for j := range m.DeviceIDs {
			out += fmt.Sprintf(" %8.4f", m.EER[i][j])
		}
		out += "\n"
	}
	return out
}

// Table4Asymmetry summarizes the surprising observation the paper makes
// about Table 4: the Kendall test results are not symmetric under
// swapping which device supplies the gallery. It returns the mean
// absolute difference of log10 p-values between cell (i,j) and the cell
// whose roles are swapped (j,i), over live-scan pairs present in both
// orientations.
func Table4Asymmetry(t Table4Data) float64 {
	idx := map[string]int{}
	for i, id := range t.RowIDs {
		idx[id] = i
	}
	var sum float64
	var n int
	for i, rowID := range t.RowIDs {
		for j, colID := range t.ColIDs {
			if rowID == colID {
				continue
			}
			ri, ok := idx[colID]
			if !ok {
				continue // ink column has no row
			}
			// Find the column of rowID in the swapped row.
			cj := -1
			for k, c := range t.ColIDs {
				if c == rowID {
					cj = k
					break
				}
			}
			if cj < 0 {
				continue
			}
			a := t.P[i][j].Log10
			b := t.P[ri][cj].Log10
			if math.IsInf(a, 0) || math.IsInf(b, 0) {
				continue
			}
			sum += math.Abs(a - b)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
