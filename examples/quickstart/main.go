// Quickstart: enroll a finger on one sensor, verify it on the same
// sensor, run a 1:N identification, and inspect the similarity scores —
// the minimal end-to-end use of the library's public surface: the
// capture pipeline (population → sensor) feeding the fpis.Service
// identity facade.
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
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example, printing to w.
func run(w io.Writer) error {
	// Every run of this program is identical: the cohort, every capture
	// and therefore every score derive from this one seed.
	cohort := population.NewCohort(rng.New(42), population.CohortOptions{Size: 2})
	alice := cohort.Subjects[0]
	mallory := cohort.Subjects[1]

	guardian, ok := sensor.ProfileByID("D0")
	if !ok {
		return errors.New("device D0 missing")
	}

	// The identity service: here a local in-process gallery; the same
	// fpis.Service interface serves sharded (fpis.WithLocalShards /
	// fpis.WithShards) and remote (fpis.Dial) deployments. Every call
	// takes a context, so callers can bound or cancel any operation.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	svc, err := fpis.New(ctx)
	if err != nil {
		return err
	}
	defer svc.Close()

	// Enrollment: first interaction with the sensor produces the gallery
	// template.
	enrolled, err := guardian.CaptureSubject(alice, 0, sensor.CaptureOptions{})
	if err != nil {
		return err
	}
	if err := svc.Enroll(ctx, "alice", guardian.ID, enrolled.Template); err != nil {
		return err
	}
	fmt.Fprintf(w, "enrolled alice on %s: %d minutiae, quality %s\n",
		guardian.Model, enrolled.Template.Count(), enrolled.Quality)

	// Verification: a later capture on the same device, compared 1:1
	// against the claimed identity.
	probe, err := guardian.CaptureSubject(alice, 1, sensor.CaptureOptions{})
	if err != nil {
		return err
	}
	genuine, err := svc.Verify(ctx, "alice", probe.Template)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "genuine attempt:  score %5.2f (matched %d minutiae)\n",
		genuine.Score, genuine.Matched)

	// An impostor attempt: someone else's finger claiming alice's
	// identity on the same device.
	attack, err := guardian.CaptureSubject(mallory, 0, sensor.CaptureOptions{})
	if err != nil {
		return err
	}
	impostor, err := svc.Verify(ctx, "alice", attack.Template)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "impostor attempt: score %5.2f (matched %d minutiae)\n",
		impostor.Score, impostor.Matched)

	// Identification: who does this probe belong to, with no claimed
	// identity? (1:N over the whole gallery.)
	cands, err := svc.Identify(ctx, probe.Template, 1)
	if err != nil {
		return err
	}
	top := "(none)"
	if len(cands) > 0 {
		top = fmt.Sprintf("%s (score %.2f)", cands[0].ID, cands[0].Score)
	}
	fmt.Fprintf(w, "identification:   rank-1 %s\n", top)

	// The study found impostor scores never exceed 7 on this scale.
	const threshold = 7.0
	fmt.Fprintf(w, "\ndecision at threshold %.0f: genuine=%v impostor=%v\n",
		threshold, genuine.Score >= threshold, impostor.Score >= threshold)
	return nil
}
