package main

// Chaos smoke test: a real matchd process (the test binary re-executed
// in helper mode) served through a deterministic fault-injecting proxy.
// The client runs with the resilience knobs this PR adds — pooled
// connections, retries with backoff, keepalives — and the contract is
// that every operation either succeeds or fails with a typed error,
// and that once the faults stop the service answers cleanly with
// nothing lost. This is the process-level counterpart of
// internal/matchsvc's in-process chaos suite.

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"fpinterop/internal/faultnet"
	"fpinterop/internal/gallery"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// smokeErrOK reports whether err is one of the typed failures a caller
// is documented to see under transport faults.
func smokeErrOK(err error) bool {
	for _, want := range []error{
		matchsvc.ErrTransport,
		matchsvc.ErrRemote,
		matchsvc.ErrCorruptFrame,
		matchsvc.ErrFrameTooLarge,
		matchsvc.ErrClosed,
		context.Canceled,
		context.DeadlineExceeded,
		os.ErrDeadlineExceeded,
	} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

func TestChaosProxySmokeAgainstRealMatchd(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level smoke test")
	}
	const preload = 40
	_, addr := startMatchd(t, "-addr", "127.0.0.1:0", "-preload", "40")

	proxy, err := faultnet.NewProxy(addr, faultnet.Faults{
		Seed:             0xC0FFEE,
		LatencyProb:      0.05,
		LatencyMin:       time.Millisecond,
		LatencyMax:       5 * time.Millisecond,
		ResetProb:        0.01,
		PartialWriteProb: 0.01,
		CorruptProb:      0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// The dial includes the handshake, so it goes through clean; every
	// later connection of the pool negotiates under faults.
	proxy.SetEnabled(false)
	cli, err := matchsvc.Dial(ctx, proxy.Addr(), matchsvc.ClientOptions{
		PoolSize:       2,
		RequestTimeout: 2 * time.Second,
		Retry:          matchsvc.Retry{Attempts: 5, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	proxy.SetEnabled(true)

	// A probe for the preloaded population: same cohort seed and device
	// the -preload path uses, different capture sample.
	dev, _ := sensor.ProfileByID("D0")
	cohort := population.NewCohort(rng.New(2013).Child("cohort"), population.CohortOptions{Size: preload})
	imp, err := dev.CaptureSubject(cohort.Subjects[0], 1, sensor.CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probe := imp.Template

	// Each op gets its own short deadline: a fault can leave a request
	// waiting on bytes that never come (a flipped length prefix), and
	// under the test's long deadline the client's RequestTimeout
	// fallback does not apply, so that op would wait the whole test out.
	ok := 0
	for i := 0; i < 80; i++ {
		ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		var err error
		switch i % 4 {
		case 0:
			err = cli.Ping(ctx)
		case 1:
			var n int
			if n, err = cli.Len(ctx); err == nil && n != preload {
				t.Fatalf("op %d: count = %d, want %d", i, n, preload)
			}
		case 2:
			if _, err = cli.Verify(ctx, "subject-0000", probe); errors.Is(err, gallery.ErrNotFound) {
				t.Fatalf("op %d: preloaded subject missing", i)
			}
		case 3:
			var cands []gallery.Candidate
			if cands, _, err = cli.IdentifyEx(ctx, probe, 3); err == nil && len(cands) == 0 {
				t.Fatalf("op %d: identify over a %d-subject gallery found nothing", i, preload)
			}
		}
		cancel()
		if err == nil {
			ok++
		} else if !smokeErrOK(err) {
			t.Fatalf("op %d: untyped error under faults: %v", i, err)
		}
	}
	if ok == 0 {
		t.Fatal("no operation succeeded through the faulty proxy; retries should have carried some")
	}
	t.Logf("chaos smoke: %d/80 ops succeeded through the faulty proxy", ok)

	// Faults off: the same client (same pool) must serve cleanly.
	proxy.SetEnabled(false)
	ctx, cancel = context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := cli.Ping(ctx); err != nil {
		t.Fatalf("ping after faults disabled: %v", err)
	}
	n, err := cli.Len(ctx)
	if err != nil || n != preload {
		t.Fatalf("count after faults disabled: n=%d err=%v", n, err)
	}
}

// TestChaosFlagValidation pins the resilience flags' ranges and
// applicability rules without starting a server or dialing a shard.
func TestChaosFlagValidation(t *testing.T) {
	sink := sinkAddr(t)
	cases := [][]string{
		{"-pool-size", "-1", "-shards", sink},
		{"-pool-size", "2"},
		{"-retry", "-1", "-shards", sink},
		{"-retry", "3"},
		{"-keepalive", "5s"},
		{"-hedge-delay", "-1s", "-local-shards", "2"},
		{"-hedge-delay", "10ms"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
