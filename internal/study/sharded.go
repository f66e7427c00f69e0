package study

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/shard"
)

// ShardedIdentificationResult contrasts closed-set identification served
// by a scatter-gather shard router against a single store holding the
// same enrollments. With exhaustive per-shard search the router merge is
// provably equivalent, so Mismatches is the reproduction check: any
// non-zero value means the partition/merge machinery changed results.
type ShardedIdentificationResult struct {
	GalleryDevice, ProbeDevice string
	// Shards is the router's shard count; ShardSizes the per-shard
	// enrollment counts the ring produced.
	Shards     int
	ShardSizes []int
	// Gallery is the enrollment count, Probes the number of searches.
	Gallery, Probes int
	// Single and Sharded are the CMC curves of the two serving paths.
	Single, Sharded gallery.CMC
	// Mismatches counts probes whose top-k candidate lists (IDs, scores,
	// order) were not bit-identical across the two paths.
	Mismatches int
	// SingleNanos and ShardedNanos are total identification latencies.
	SingleNanos, ShardedNanos int64
}

// ShardedIdentification enrolls the first n subjects (gallery device,
// first sample) into both a single store and a router over `shards`
// local shards, searches every second-sample probe through both, and
// verifies the merged global top-k is bit-identical. Cost is two
// exhaustive O(n²) sweeps — size n accordingly.
func ShardedIdentification(ds *Dataset, galleryID, probeID string, n, maxRank, shards int) (ShardedIdentificationResult, error) {
	if n <= 0 || n > ds.NumSubjects() {
		n = ds.NumSubjects()
	}
	if maxRank <= 0 {
		maxRank = 5
	}
	if shards <= 0 {
		shards = 3
	}
	single, probes, ids, err := identificationStore(ds, galleryID, probeID, n)
	if err != nil {
		return ShardedIdentificationResult{}, err
	}
	backends := make([]shard.Backend, shards)
	items := make([]shard.Enrollment, n)
	for i := range backends {
		backends[i] = shard.NewLocal(fmt.Sprintf("shard-%d", i), gallery.New(ds.Config.Matcher))
	}
	router, err := shard.New(backends, shard.Options{})
	if err != nil {
		return ShardedIdentificationResult{}, err
	}
	for s := 0; s < n; s++ {
		items[s] = shard.Enrollment{ID: ids[s], DeviceID: galleryID, Template: ds.Impression(s, mustDeviceIndex(ds, galleryID), 0).Template}
	}
	if err := router.EnrollBatch(context.Background(), items); err != nil {
		return ShardedIdentificationResult{}, fmt.Errorf("study: sharded enroll: %w", err)
	}

	out := ShardedIdentificationResult{
		GalleryDevice: galleryID,
		ProbeDevice:   probeID,
		Shards:        shards,
		Gallery:       n,
		Probes:        n,
	}
	for _, b := range router.Backends() {
		sz, err := b.Len(context.Background())
		if err != nil {
			return ShardedIdentificationResult{}, err
		}
		out.ShardSizes = append(out.ShardSizes, sz)
	}

	singleHits := make([]int, maxRank)
	shardedHits := make([]int, maxRank)
	for i, probe := range probes {
		t0 := time.Now()
		want, err := single.IdentifyContext(context.Background(), probe, maxRank)
		if err != nil {
			return ShardedIdentificationResult{}, fmt.Errorf("study: single identify: %w", err)
		}
		out.SingleNanos += time.Since(t0).Nanoseconds()
		t1 := time.Now()
		got, stats, err := router.IdentifyDetailed(context.Background(), probe, maxRank)
		if err != nil {
			return ShardedIdentificationResult{}, fmt.Errorf("study: sharded identify: %w", err)
		}
		out.ShardedNanos += time.Since(t1).Nanoseconds()
		if stats.Partial {
			return ShardedIdentificationResult{}, fmt.Errorf("study: sharded search had partial coverage: %+v", stats)
		}
		identical := len(got) == len(want)
		if identical {
			for c := range want {
				if got[c] != want[c] {
					identical = false
					break
				}
			}
		}
		if !identical {
			out.Mismatches++
		}
		for r, c := range want {
			if c.ID == ids[i] {
				singleHits[r]++
				break
			}
		}
		for r, c := range got {
			if c.ID == ids[i] {
				shardedHits[r]++
				break
			}
		}
	}
	out.Single = cumulate(singleHits, n)
	out.Sharded = cumulate(shardedHits, n)
	return out, nil
}

// cumulate turns a rank-hit histogram into a CMC curve.
func cumulate(hits []int, probes int) gallery.CMC {
	out := make(gallery.CMC, len(hits))
	cum := 0
	for k := range hits {
		cum += hits[k]
		out[k] = float64(cum) / float64(probes)
	}
	return out
}

// mustDeviceIndex resolves a device the caller has already validated
// through identificationStore.
func mustDeviceIndex(ds *Dataset, id string) int {
	i, _ := ds.DeviceIndex(id)
	return i
}

// RenderShardedIdentification prints the sharded-vs-single comparison in
// the EXPERIMENTS table style. Latencies are per-search means; the
// equality column is the load-bearing number.
func RenderShardedIdentification(results []ShardedIdentificationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded vs single-store closed-set identification (scatter-gather router)\n")
	fmt.Fprintf(&b, "%-10s %7s %8s %8s %13s %14s %10s %12s %12s  %s\n",
		"Pair", "shards", "gallery", "probes", "rank1 single", "rank1 sharded", "mismatch", "p.single", "p.sharded", "shard sizes")
	for _, r := range results {
		sizes := make([]string, len(r.ShardSizes))
		for i, s := range r.ShardSizes {
			sizes[i] = fmt.Sprintf("%d", s)
		}
		fmt.Fprintf(&b, "%-10s %7d %8d %8d %13.3f %14.3f %10d %12s %12s  %s\n",
			r.GalleryDevice+"->"+r.ProbeDevice, r.Shards, r.Gallery, r.Probes,
			r.Single.RankOne(), r.Sharded.RankOne(), r.Mismatches,
			meanLatency(r.SingleNanos, r.Probes), meanLatency(r.ShardedNanos, r.Probes),
			strings.Join(sizes, "/"))
	}
	return b.String()
}

func meanLatency(totalNanos int64, probes int) string {
	if probes == 0 {
		return "-"
	}
	return time.Duration(totalNanos / int64(probes)).Round(10 * time.Microsecond).String()
}
