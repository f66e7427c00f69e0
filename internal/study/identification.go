package study

import (
	"context"
	"fmt"
	"strings"

	"fpinterop/internal/gallery"
	"fpinterop/internal/minutiae"
)

// IdentificationResult summarizes a closed-set 1:N identification
// experiment: gallery enrolled on one device, probes from another.
type IdentificationResult struct {
	GalleryDevice, ProbeDevice string
	// CMC[k-1] is the fraction of probes whose true identity ranked ≤ k.
	CMC gallery.CMC
	// Probes is the number of searches performed.
	Probes int
}

// identificationStore enrolls the first n subjects (first sample on the
// gallery device) and returns the store plus matching second-sample
// probes from the probe device.
func identificationStore(ds *Dataset, galleryID, probeID string, n int) (*gallery.Store, []*minutiae.Template, []string, error) {
	gi, ok := ds.DeviceIndex(galleryID)
	if !ok {
		return nil, nil, nil, fmt.Errorf("study: unknown gallery device %q", galleryID)
	}
	pi, ok := ds.DeviceIndex(probeID)
	if !ok {
		return nil, nil, nil, fmt.Errorf("study: unknown probe device %q", probeID)
	}
	store := gallery.New(ds.Config.Matcher)
	ids := make([]string, n)
	probes := make([]*minutiae.Template, n)
	for s := 0; s < n; s++ {
		ids[s] = fmt.Sprintf("subject-%04d", s)
		if err := store.Enroll(ids[s], galleryID, ds.Impression(s, gi, 0).Template); err != nil {
			return nil, nil, nil, fmt.Errorf("study: identification enroll: %w", err)
		}
		probes[s] = ds.Impression(s, pi, 1).Template
	}
	return store, probes, ids, nil
}

// Identification runs a closed-set identification experiment over the
// first n subjects of the dataset (all subjects when n <= 0): everyone is
// enrolled from their first sample on galleryID and searched with their
// second sample on probeID. Cost is O(n²) matcher calls — size n
// accordingly.
func Identification(ds *Dataset, galleryID, probeID string, n, maxRank int) (IdentificationResult, error) {
	if n <= 0 || n > ds.NumSubjects() {
		n = ds.NumSubjects()
	}
	if maxRank <= 0 {
		maxRank = 5
	}
	store, probes, ids, err := identificationStore(ds, galleryID, probeID, n)
	if err != nil {
		return IdentificationResult{}, err
	}
	cmc, err := gallery.ComputeCMCContext(context.Background(), store, probes, ids, maxRank)
	if err != nil {
		return IdentificationResult{}, fmt.Errorf("study: identification CMC: %w", err)
	}
	return IdentificationResult{
		GalleryDevice: galleryID,
		ProbeDevice:   probeID,
		CMC:           cmc,
		Probes:        n,
	}, nil
}

// IndexedIdentificationResult contrasts closed-set identification served
// by the triplet-index shortlist against the exhaustive scan on the
// same gallery and probes — the recall/speed trade-off of the retrieval
// stage.
type IndexedIdentificationResult struct {
	GalleryDevice, ProbeDevice string
	// Exhaustive and Indexed are the two CMC curves.
	Exhaustive, Indexed gallery.CMC
	// Probes is the number of searches, Gallery the enrollment count.
	Probes, Gallery int
	// MeanShortlist is the mean index shortlist size across searches.
	MeanShortlist float64
	// MeanScanned is the mean number of full matcher comparisons per
	// indexed search (the exhaustive path scans Gallery).
	MeanScanned float64
	// Fallbacks counts searches the recall guard sent to the exhaustive
	// path.
	Fallbacks int
}

// IndexedIdentification runs the indexed-vs-exhaustive comparison over
// the first n subjects (all when n <= 0). The exhaustive CMC uses the
// full-ranking path; the indexed CMC takes each probe's rank from the
// top-maxRank candidates the shortlist search returns (a miss beyond
// the shortlist counts as unidentified, which is exactly the accuracy
// cost the index trades for speed).
func IndexedIdentification(ds *Dataset, galleryID, probeID string, n, maxRank int, opt gallery.IndexOptions) (IndexedIdentificationResult, error) {
	if n <= 0 || n > ds.NumSubjects() {
		n = ds.NumSubjects()
	}
	if maxRank <= 0 {
		maxRank = 5
	}
	store, probes, ids, err := identificationStore(ds, galleryID, probeID, n)
	if err != nil {
		return IndexedIdentificationResult{}, err
	}
	exhaustive, err := gallery.ComputeCMCContext(context.Background(), store, probes, ids, maxRank)
	if err != nil {
		return IndexedIdentificationResult{}, fmt.Errorf("study: exhaustive CMC: %w", err)
	}
	if err := store.EnableIndex(opt); err != nil {
		return IndexedIdentificationResult{}, fmt.Errorf("study: enable index: %w", err)
	}
	out := IndexedIdentificationResult{
		GalleryDevice: galleryID,
		ProbeDevice:   probeID,
		Exhaustive:    exhaustive,
		Probes:        n,
		Gallery:       store.Len(),
	}
	hits := make([]int, maxRank)
	var shortlistSum, scannedSum int
	for i, probe := range probes {
		cands, stats, err := store.IdentifyDetailedContext(context.Background(), probe, maxRank)
		if err != nil {
			return IndexedIdentificationResult{}, fmt.Errorf("study: indexed identify: %w", err)
		}
		shortlistSum += stats.Shortlist
		scannedSum += stats.Scanned
		if !stats.Indexed {
			out.Fallbacks++
		}
		for r, c := range cands {
			if c.ID == ids[i] {
				hits[r]++
				break
			}
		}
	}
	out.Indexed = make(gallery.CMC, maxRank)
	cum := 0
	for k := 0; k < maxRank; k++ {
		cum += hits[k]
		out.Indexed[k] = float64(cum) / float64(n)
	}
	out.MeanShortlist = float64(shortlistSum) / float64(n)
	out.MeanScanned = float64(scannedSum) / float64(n)
	return out, nil
}

// RenderIndexedIdentification prints the indexed-vs-exhaustive
// comparison in the EXPERIMENTS table style.
func RenderIndexedIdentification(results []IndexedIdentificationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Indexed vs exhaustive closed-set identification (triplet-index shortlist)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %12s %12s %8s %10s %10s %6s\n",
		"Pair", "gallery", "probes", "exh rank-1", "idx rank-1", "Δ (pp)", "shortlist", "scanned", "fallb")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s %8d %8d %12.3f %12.3f %8.1f %10.1f %10.1f %6d\n",
			r.GalleryDevice+"->"+r.ProbeDevice, r.Gallery, r.Probes,
			r.Exhaustive.RankOne(), r.Indexed.RankOne(),
			100*(r.Exhaustive.RankOne()-r.Indexed.RankOne()),
			r.MeanShortlist, r.MeanScanned, r.Fallbacks)
	}
	return b.String()
}

// RenderIdentification prints the CMC summary.
func RenderIdentification(results []IdentificationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Closed-set identification (CMC), gallery device -> probe device\n")
	fmt.Fprintf(&b, "%-12s %8s", "Pair", "probes")
	if len(results) > 0 {
		for k := 1; k <= len(results[0].CMC); k++ {
			fmt.Fprintf(&b, "  rank-%d", k)
		}
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %8d", r.GalleryDevice+"->"+r.ProbeDevice, r.Probes)
		for _, v := range r.CMC {
			fmt.Fprintf(&b, "  %6.3f", v)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
