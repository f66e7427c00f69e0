// Remote matching: the deployment shape the paper's discussion section
// contemplates — a central matcher and gallery behind a network service,
// with heterogeneous capture devices at the edge. This example starts the
// service in-process, then drives it purely through the public
// fpis.Service facade: an enrollment desk and a verification kiosk each
// hold an fpis.Dial connection, every request carries a context
// deadline, and a deliberately tight deadline shows an in-flight 1:N
// search being cancelled mid-scan. It then preloads a larger gallery
// into two services — one exhaustive, one with the minutia-triplet
// retrieval index — and contrasts their identification latency: each
// wire round trip is recorded into an obs histogram and the p50/p99
// read back with the same quantile estimator the /metrics.json
// endpoint uses in production.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"fpinterop/fpis"
	"fpinterop/internal/gallery"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/obs"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// startServer serves a store in-process and returns its address plus a
// shutdown func. This is the serving side (what cmd/matchd runs);
// everything below it speaks fpis.
func startServer(store *gallery.Store) (string, func(), error) {
	srv := matchsvc.NewServer(store, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	return addr, func() {
		cancel()
		srv.Close()
		<-done
	}, nil
}

// indexedIdentifyDemo preloads an exhaustive and an indexed service
// with the same gallery and compares 1:N latency over the wire.
func indexedIdentifyDemo(w io.Writer, gallerySize, probeCount int) error {
	fmt.Fprintf(w, "\n--- indexed identification, %d enrollments ---\n", gallerySize)
	cohort := population.NewCohort(rng.New(366), population.CohortOptions{Size: gallerySize})
	enrollDev, _ := sensor.ProfileByID("D0")

	exhaustive := gallery.New(nil)
	indexed := gallery.New(nil)
	if err := indexed.EnableIndex(gallery.IndexOptions{}); err != nil {
		return err
	}
	probes := make([]*minutiae.Template, 0, probeCount)
	for i, subj := range cohort.Subjects {
		imp, err := enrollDev.CaptureSubject(subj, 0, sensor.CaptureOptions{})
		if err != nil {
			return err
		}
		id := fmt.Sprintf("subject-%05d", i)
		if err := exhaustive.Enroll(id, enrollDev.ID, imp.Template); err != nil {
			return err
		}
		if err := indexed.Enroll(id, enrollDev.ID, imp.Template); err != nil {
			return err
		}
		if i < probeCount {
			p, err := enrollDev.CaptureSubject(subj, 1, sensor.CaptureOptions{})
			if err != nil {
				return err
			}
			probes = append(probes, p.Template)
		}
	}
	if st, ok := indexed.IndexStats(); ok {
		fmt.Fprintf(w, "index: %d templates, %d keys, %d postings\n",
			st.Templates, st.DistinctKeys, st.Postings)
	}

	// One latency histogram per search path, from the same obs package
	// matchd exposes on /metrics — Quantile replaces hand-sorted
	// percentile math.
	latency := obs.NewRegistry().HistogramVec("identify_latency_ns",
		"1:N search latency over the wire.", obs.LatencyBuckets(), "path")

	fmt.Fprintf(w, "%-12s %10s %10s %8s %10s\n", "path", "p50", "p99", "rank-1", "shortlist")
	for _, cfg := range []struct {
		name  string
		store *gallery.Store
	}{{"exhaustive", exhaustive}, {"indexed", indexed}} {
		addr, shutdown, err := startServer(cfg.store)
		if err != nil {
			return err
		}
		svc, err := fpis.Dial(context.Background(), addr, fpis.WithRequestTimeout(time.Minute))
		if err != nil {
			return err
		}
		lat := latency.With(cfg.name)
		hits := 0
		shortlistSum := 0
		for i, probe := range probes {
			// Each search gets its own deadline — the per-request
			// control a central service needs under heavy traffic.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			start := time.Now()
			cands, stats, err := svc.IdentifyDetailed(ctx, probe, 1)
			cancel()
			if err != nil {
				return err
			}
			lat.ObserveSince(start)
			if len(cands) > 0 && cands[0].ID == fmt.Sprintf("subject-%05d", i) {
				hits++
			}
			shortlistSum += stats.Shortlist
		}
		svc.Close()
		shutdown()
		fmt.Fprintf(w, "%-12s %10v %10v %5d/%-2d %10.1f\n",
			cfg.name,
			time.Duration(lat.Quantile(0.50)).Round(100*time.Microsecond),
			time.Duration(lat.Quantile(0.99)).Round(100*time.Microsecond),
			hits, len(probes),
			float64(shortlistSum)/float64(len(probes)))
	}
	return nil
}

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example, printing to w.
func run(w io.Writer) error {
	// Central service.
	addr, shutdown, err := startServer(gallery.New(nil))
	if err != nil {
		return err
	}
	defer shutdown()
	fmt.Fprintf(w, "match service listening on %s\n", addr)

	// Edge station 1: enrollment desk with a Guardian R2, connected
	// through the public facade.
	cohort := population.NewCohort(rng.New(365), population.CohortOptions{Size: 8})
	enrollDev, _ := sensor.ProfileByID("D0")
	dialCtx, dialCancel := context.WithTimeout(context.Background(), 2*time.Second)
	enrollStation, err := fpis.Dial(dialCtx, addr, fpis.WithRequestTimeout(time.Minute))
	dialCancel()
	if err != nil {
		return err
	}
	defer enrollStation.Close()
	items := make([]fpis.Enrollment, len(cohort.Subjects))
	for i, subj := range cohort.Subjects {
		imp, err := enrollDev.CaptureSubject(subj, 0, sensor.CaptureOptions{})
		if err != nil {
			return err
		}
		items[i] = fpis.Enrollment{
			ID:       fmt.Sprintf("traveller-%02d", i),
			DeviceID: enrollDev.ID,
			Template: imp.Template,
		}
	}
	ctx := context.Background()
	if err := enrollStation.EnrollBatch(ctx, items); err != nil {
		return err
	}
	st, err := enrollStation.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "enrolled %d travellers on %s\n\n", st.Enrollments, enrollDev.Model)

	// Edge station 2: verification kiosk with a different sensor.
	verifyDev, _ := sensor.ProfileByID("D3")
	kiosk, err := fpis.Dial(ctx, addr, fpis.WithRequestTimeout(time.Minute))
	if err != nil {
		return err
	}
	defer kiosk.Close()

	fmt.Fprintf(w, "kiosk sensor: %s (cross-device verification)\n", verifyDev.Model)
	fmt.Fprintf(w, "%-14s %10s %8s %14s\n", "claimed ID", "score", "match?", "identified as")
	hits := 0
	for i, subj := range cohort.Subjects {
		imp, err := verifyDev.CaptureSubject(subj, 1, sensor.CaptureOptions{SampleIndex: 1})
		if err != nil {
			return err
		}
		id := fmt.Sprintf("traveller-%02d", i)
		reqCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		res, err := kiosk.Verify(reqCtx, id, imp.Template)
		if err != nil {
			cancel()
			return err
		}
		cands, err := kiosk.Identify(reqCtx, imp.Template, 1)
		cancel()
		if err != nil {
			return err
		}
		top := "(none)"
		if len(cands) > 0 {
			top = cands[0].ID
			if top == id {
				hits++
			}
		}
		fmt.Fprintf(w, "%-14s %10.2f %8v %14s\n", id, res.Score, res.Score >= 7, top)
	}
	fmt.Fprintf(w, "\nrank-1 identification across devices: %d/%d\n", hits, len(cohort.Subjects))

	// Cancellation: an already-expired deadline unblocks immediately
	// with the context's error instead of paying for the search.
	probe, err := verifyDev.CaptureSubject(cohort.Subjects[0], 1, sensor.CaptureOptions{})
	if err != nil {
		return err
	}
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Millisecond))
	start := time.Now()
	_, err = kiosk.Identify(expired, probe.Template, 1)
	cancel()
	fmt.Fprintf(w, "expired-deadline identify: err=%v (is deadline: %v) after %v\n",
		err, errors.Is(err, context.DeadlineExceeded), time.Since(start).Round(time.Millisecond))

	// Scale the gallery up and let the retrieval index earn its keep.
	return indexedIdentifyDemo(w, 400, 25)
}
