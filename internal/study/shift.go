package study

import (
	"fmt"
	"strings"

	"fpinterop/internal/par"
	"fpinterop/internal/stats"
)

// ShiftAnalysis tests, per gallery device, whether the cross-device
// genuine score distribution is significantly shifted below the
// same-device one — a direct hypothesis test of the paper's headline
// claim, complementing the Kendall correlation view of Table 4.
type ShiftAnalysis struct {
	// GalleryIDs lists the live-scan gallery devices analysed.
	GalleryIDs []string
	// P[i] is the two-sided Mann–Whitney p-value comparing DMG (same
	// device) against DDMG (diverse devices) for gallery device i.
	P []stats.PValue
	// Effect[i] is the common-language effect size: the probability a
	// same-device genuine score exceeds a cross-device one.
	Effect []float64
}

// Shift runs the analysis. The per-gallery partitions are built in one
// pass over the score sets (instead of one rescan per device) and the
// independent Mann–Whitney tests run on the study's bounded worker pool.
func Shift(ds *Dataset, sets *ScoreSets) (ShiftAnalysis, error) {
	nDev := ds.NumDevices()
	same := make([][]float64, nDev)
	cross := make([][]float64, nDev)
	for _, s := range sets.DMG {
		same[s.DeviceG] = append(same[s.DeviceG], s.Value)
	}
	for _, s := range sets.DDMG {
		cross[s.DeviceG] = append(cross[s.DeviceG], s.Value)
	}
	var galleries []int
	for di := 0; di < nDev; di++ {
		if !ds.Devices[di].Ink {
			galleries = append(galleries, di)
		}
	}
	out := ShiftAnalysis{
		GalleryIDs: make([]string, len(galleries)),
		P:          make([]stats.PValue, len(galleries)),
		Effect:     make([]float64, len(galleries)),
	}
	err := par.For(nil, len(galleries), func(_, i int) error {
		di := galleries[i]
		res, err := stats.MannWhitney(same[di], cross[di])
		if err != nil {
			return fmt.Errorf("shift for %s: %w", ds.Devices[di].ID, err)
		}
		out.GalleryIDs[i] = ds.Devices[di].ID
		out.P[i] = res.P
		out.Effect[i] = res.CommonLanguage
		return nil
	})
	if err != nil {
		return ShiftAnalysis{}, err
	}
	return out, nil
}

// RenderShift prints the analysis.
func RenderShift(a ShiftAnalysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Distribution shift: DMG vs DDMG per gallery device (Mann-Whitney)\n")
	fmt.Fprintf(&b, "%-8s %14s %22s\n", "Gallery", "p-value", "P(same > diverse)")
	for i, id := range a.GalleryIDs {
		fmt.Fprintf(&b, "%-8s %14s %22.3f\n", id, a.P[i].String(), a.Effect[i])
	}
	return b.String()
}
