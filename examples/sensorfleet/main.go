// Sensor-fleet operating points: an operator running a heterogeneous
// fleet must pick decision thresholds. This example contrasts a single
// global threshold (calibrated on pooled impostor scores at a target FMR)
// with per-device-pair thresholds, showing how per-pair calibration
// equalizes FNMR across the fleet — one of the architecture questions the
// paper's discussion section raises. It then enrolls the whole fleet
// into a sharded central gallery — the public fpis.Service facade over
// a consistent-hash router of three shards — and shows scatter-gather
// identification returning the same rank-1 answers as the same facade
// over one monolithic store.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"fpinterop/fpis"
	"fpinterop/internal/match"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
	"fpinterop/internal/stats"
)

const (
	cohortSize = 100
	targetFMR  = 0.01
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example, printing to w.
func run(w io.Writer) error {
	cohort := population.NewCohort(rng.New(77), population.CohortOptions{Size: cohortSize})
	devices := sensor.LiveScanProfiles()
	matcher := &match.HoughMatcher{}

	// Capture two samples of everyone on every live-scan device.
	impressions := make(map[string][][]*sensor.Impression, len(devices))
	for _, dev := range devices {
		perSubject := make([][]*sensor.Impression, cohortSize)
		for i, s := range cohort.Subjects {
			for k := 0; k < 2; k++ {
				imp, err := dev.CaptureSubject(s, k, sensor.CaptureOptions{})
				if err != nil {
					return err
				}
				perSubject[i] = append(perSubject[i], imp)
			}
		}
		impressions[dev.ID] = perSubject
	}

	// Score every ordered device pair: genuine (same subject) and
	// impostor (next subject, cyclically).
	type pair struct{ g, p string }
	genuine := map[pair][]float64{}
	impostor := map[pair][]float64{}
	for _, dg := range devices {
		for _, dp := range devices {
			k := pair{dg.ID, dp.ID}
			for i := 0; i < cohortSize; i++ {
				g := impressions[dg.ID][i][0]
				pr := impressions[dp.ID][i][1]
				res, err := matcher.Match(g.Template, pr.Template)
				if err != nil {
					return err
				}
				genuine[k] = append(genuine[k], res.Score)
				o := impressions[dp.ID][(i+1)%cohortSize][1]
				res, err = matcher.Match(g.Template, o.Template)
				if err != nil {
					return err
				}
				impostor[k] = append(impostor[k], res.Score)
			}
		}
	}

	// Global threshold from pooled impostors.
	var pooled []float64
	for _, xs := range impostor {
		pooled = append(pooled, xs...)
	}
	globalThr, err := stats.ThresholdForFMR(pooled, targetFMR)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fleet of %d devices, target FMR %.2g, global threshold %.2f\n\n",
		len(devices), targetFMR, globalThr)
	fmt.Fprintf(w, "%-10s %12s %12s %14s\n", "Pair", "global FNMR", "pair thr", "per-pair FNMR")

	var worstGlobal, worstPer float64
	for _, dg := range devices {
		for _, dp := range devices {
			k := pair{dg.ID, dp.ID}
			gFNMR := stats.FNMRAt(genuine[k], globalThr)
			thr, err := stats.ThresholdForFMR(impostor[k], targetFMR)
			if err != nil {
				return err
			}
			pFNMR := stats.FNMRAt(genuine[k], thr)
			fmt.Fprintf(w, "%-10s %12.3f %12.2f %14.3f\n",
				dg.ID+"->"+dp.ID, gFNMR, thr, pFNMR)
			if gFNMR > worstGlobal {
				worstGlobal = gFNMR
			}
			if pFNMR > worstPer {
				worstPer = pFNMR
			}
		}
	}
	fmt.Fprintf(w, "\nworst-case FNMR: global threshold %.3f, per-pair thresholds %.3f\n",
		worstGlobal, worstPer)

	// --- Sharded central gallery -------------------------------------
	// The fleet's enrollment device is D0 (first sample of everyone);
	// the central gallery is the public fpis.Service facade, once over a
	// single store and once partitioned across three shards. EnrollBatch
	// groups the fleet's templates by owning shard, so a remote
	// deployment ships one batch per shard instead of one round trip per
	// subject; every call carries a context deadline.
	const shards = 3
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	sharded, err := fpis.New(ctx, fpis.WithLocalShards(shards), fpis.WithShardTimeout(time.Minute))
	if err != nil {
		return err
	}
	defer sharded.Close()
	single, err := fpis.New(ctx)
	if err != nil {
		return err
	}
	defer single.Close()
	items := make([]fpis.Enrollment, cohortSize)
	for i := 0; i < cohortSize; i++ {
		tpl := impressions["D0"][i][0].Template
		id := fmt.Sprintf("subject-%04d", i)
		items[i] = fpis.Enrollment{ID: id, DeviceID: "D0", Template: tpl}
	}
	if err := single.EnrollBatch(ctx, items); err != nil {
		return err
	}
	if err := sharded.EnrollBatch(ctx, items); err != nil {
		return err
	}
	st, err := sharded.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nSharded central gallery: %d subjects across %d shards\n", st.Enrollments, st.Shards)

	// Search cross-device probes (digID Mini second samples) through
	// both paths; scatter-gather must reproduce the single store's
	// rank-1 exactly.
	const probeN = 20
	agree, hits := 0, 0
	for i := 0; i < probeN; i++ {
		probe := impressions["D1"][i][1].Template
		want, err := single.Identify(ctx, probe, 1)
		if err != nil {
			return err
		}
		got, stats, err := sharded.IdentifyDetailed(ctx, probe, 1)
		if err != nil {
			return err
		}
		if stats.Partial {
			return fmt.Errorf("partial coverage: %+v", stats)
		}
		if len(got) > 0 && len(want) > 0 && got[0] == want[0] {
			agree++
		}
		if len(got) > 0 && got[0].ID == fmt.Sprintf("subject-%04d", i) {
			hits++
		}
	}
	fmt.Fprintf(w, "scatter-gather vs single store: %d/%d rank-1 identical, %d/%d correct identifications\n",
		agree, probeN, hits, probeN)
	return nil
}
