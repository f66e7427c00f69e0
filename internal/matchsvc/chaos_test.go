package matchsvc

// The seeded fault-injection suite: a real server behind a
// faultnet-wrapped listener, a pooled retrying client, and >1000 mixed
// operations under deterministic resets, torn frames, byte corruption,
// latency spikes, transient accept failures, and blackholed reads. The
// contract under chaos:
//
//   - every failed operation reports a prompt typed error from the
//     known set — never a hang, never an untyped surprise;
//   - every operation that succeeds returns the answer the clean server
//     would have given (zero mis-answers — the mux CRC's job);
//   - every acknowledged enrollment is durable: it is present when the
//     faults stop.
//
// After the chaos phase injection is disabled and the same client and
// gallery must converge to exact agreement with direct store queries.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpinterop/internal/enc"
	"fpinterop/internal/faultnet"
	"fpinterop/internal/gallery"
	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/rng"
)

// chaosErrOK reports whether err is one of the typed failures the
// client is allowed to surface under injected faults.
func chaosErrOK(err error) bool {
	return errors.Is(err, ErrTransport) ||
		errors.Is(err, ErrRemote) ||
		errors.Is(err, ErrCorruptFrame) ||
		errors.Is(err, ErrFrameTooLarge) ||
		errors.Is(err, ErrClosed) ||
		errors.Is(err, enc.ErrShort) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, os.ErrDeadlineExceeded)
}

func TestChaosSeededFaultsZeroLostOrMisanswered(t *testing.T) {
	const (
		baseline = 40 // clean enrollments whose answers are pinned
		workers  = 8
	)
	opsPerWorker := 150 // 1200 operations under fault injection
	if testing.Short() {
		opsPerWorker = 40
	}

	store := gallery.New(nil)
	srv := NewServer(store, nil)
	srv.SetIdleTimeout(2 * time.Second)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	faults := faultnet.Wrap(inner, faultnet.Faults{
		Seed:             0xC0FFEE,
		LatencyProb:      0.01,
		LatencyMin:       time.Millisecond,
		LatencyMax:       5 * time.Millisecond,
		ResetProb:        0.003,
		PartialWriteProb: 0.003,
		CorruptProb:      0.003,
		AcceptFailProb:   0.2,
		BlackholeProb:    0.002,
	})
	faults.SetEnabled(false) // clean setup phase first
	if err := srv.ListenOn(faults); err != nil {
		t.Fatalf("listen on faultnet: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx) }()
	defer func() { srv.Close(); <-done }()

	cli := dialOpts(t, inner.Addr().String(), ClientOptions{
		PoolSize:       4,
		RequestTimeout: 2 * time.Second,
		Keepalive:      100 * time.Millisecond,
		Retry:          Retry{Attempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	defer cli.Close()

	// ---- Clean setup: enroll the baseline and pin expected answers ----
	tpls := testImpressions(t, baseline, "D0", 0)
	probes := testImpressions(t, baseline, "D0", 1)
	items := make([]Enrollment, baseline)
	ids := make([]string, baseline)
	for i, tpl := range tpls {
		ids[i] = fmt.Sprintf("base-%03d", i)
		items[i] = Enrollment{ID: ids[i], DeviceID: "D0", Template: tpl}
	}
	if err := cli.EnrollBatch(context.Background(), items); err != nil {
		t.Fatalf("baseline enroll: %v", err)
	}
	wantVerify := make([]match.Result, baseline)
	for i := range ids {
		res, err := cli.Verify(context.Background(), ids[i], probes[i])
		if err != nil {
			t.Fatalf("clean verify %s: %v", ids[i], err)
		}
		wantVerify[i] = res
	}
	// Fresh identities enrolled during chaos, captured on another device
	// so they never displace a baseline subject's own rank-1.
	chaosTpls := testImpressions(t, workers, "D1", 2)

	// ---- Chaos phase ----
	faults.SetEnabled(true)
	var (
		acked     sync.Map // enroll ids the server acknowledged
		attempted atomic.Int64
		succeeded atomic.Int64
		failed    atomic.Int64
		wg        sync.WaitGroup
		failOnce  sync.Once
	)
	fatal := func(format string, args ...any) {
		failOnce.Do(func() { t.Errorf(format, args...) })
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(0xFEED).Child(fmt.Sprintf("worker/%d", w))
			for i := 0; i < opsPerWorker; i++ {
				octx, ocancel := context.WithTimeout(context.Background(), 5*time.Second)
				var err error
				switch pick := r.Intn(100); {
				case pick < 15:
					err = cli.Ping(octx)
				case pick < 45:
					idx := r.Intn(baseline)
					var res match.Result
					res, err = cli.Verify(octx, ids[idx], probes[idx])
					if err == nil && !reflect.DeepEqual(res, wantVerify[idx]) {
						fatal("MIS-ANSWER: verify %s returned %+v, want %+v", ids[idx], res, wantVerify[idx])
					}
				case pick < 60:
					idx := r.Intn(baseline)
					var cands []gallery.Candidate
					cands, _, err = cli.IdentifyEx(octx, probes[idx], 3)
					if err == nil {
						if len(cands) > 3 {
							fatal("MIS-ANSWER: identify k=3 returned %d candidates", len(cands))
						}
						for j := 1; j < len(cands); j++ {
							if cands[j].Score > cands[j-1].Score {
								fatal("MIS-ANSWER: identify ranking out of order: %+v", cands)
							}
						}
					}
				case pick < 75:
					// Presence through the contract: any probe will do, only
					// ErrNotFound would be a wrong answer.
					idx := r.Intn(baseline)
					_, err = cli.Verify(octx, ids[idx], probes[0])
					if errors.Is(err, gallery.ErrNotFound) {
						fatal("MIS-ANSWER: verify says enrolled id %s is unknown", ids[idx])
					}
				case pick < 85:
					var n int
					n, err = cli.Len(octx)
					if err == nil && n < baseline {
						fatal("MIS-ANSWER: count %d below the %d baseline", n, baseline)
					}
				default:
					id := fmt.Sprintf("chaos-%d-%d", w, i)
					attempted.Add(1)
					err = cli.Enroll(octx, id, "D1", chaosTpls[w])
					if err == nil {
						acked.Store(id, struct{}{})
					}
				}
				ocancel()
				if err == nil {
					succeeded.Add(1)
				} else {
					failed.Add(1)
					if !chaosErrOK(err) {
						fatal("untyped error under chaos: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	total := succeeded.Load() + failed.Load()
	t.Logf("chaos phase: %d ops (%d ok, %d typed failures), %d enrolls acked of %d attempted",
		total, succeeded.Load(), failed.Load(), countMap(&acked), attempted.Load())
	if want := int64(workers * opsPerWorker); total != want {
		t.Fatalf("ran %d ops, want %d", total, want)
	}

	// ---- Recovery phase: faults off, exact agreement required ----
	faults.SetEnabled(false)
	rctx, rcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer rcancel()
	if err := cli.Ping(rctx); err != nil {
		t.Fatalf("ping after chaos: %v", err)
	}
	// Quiesce before the exact-agreement checks: requests whose callers
	// timed out may still be executing server-side (the mux dispatches
	// per-request goroutines, and blackholed reads deliver frames late),
	// so wait until the gallery stops moving.
	quiesceAt := time.Now().Add(30 * time.Second)
	for stable, last := 0, -1; stable < 6; {
		n, err := cli.Len(rctx)
		if err == nil && n == last {
			stable++
		} else {
			stable, last = 0, n
		}
		if time.Now().After(quiesceAt) {
			t.Fatal("gallery never quiesced after chaos")
		}
		time.Sleep(250 * time.Millisecond)
	}
	// Every acknowledged enrollment must have survived.
	acked.Range(func(k, _ any) bool {
		_, err := cli.Verify(rctx, k.(string), probes[0])
		if errors.Is(err, gallery.ErrNotFound) {
			t.Errorf("LOST ACK: enroll %s was acknowledged but is gone", k)
		} else if err != nil {
			t.Fatalf("verify %s after chaos: %v", k, err)
		}
		return true
	})
	// The gallery holds the baseline, everything acked, and at most
	// everything attempted (a lost ack after the server applied the
	// enroll legitimately leaves an extra row).
	n, err := cli.Len(rctx)
	if err != nil {
		t.Fatalf("count after chaos: %v", err)
	}
	if min := baseline + countMap(&acked); n < min {
		t.Errorf("count %d below %d acked enrollments", n, min)
	}
	if max := baseline + int(attempted.Load()); n > max {
		t.Errorf("count %d above %d attempted enrollments", n, max)
	}
	// Wire answers must now agree exactly with direct store queries. The
	// wire probe passes through the template codec (which quantizes), so
	// the direct query must use the same round-tripped template.
	for i := 0; i < baseline; i += 5 {
		got, _, err := cli.IdentifyEx(rctx, probes[i], 5)
		if err != nil {
			t.Fatalf("identify %d after chaos: %v", i, err)
		}
		data, err := minutiae.Marshal(probes[i])
		if err != nil {
			t.Fatalf("marshal probe %d: %v", i, err)
		}
		rt, err := minutiae.Unmarshal(data)
		if err != nil {
			t.Fatalf("unmarshal probe %d: %v", i, err)
		}
		want, _, err := store.IdentifyDetailedContext(rctx, rt, 5)
		if err != nil {
			t.Fatalf("store identify %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("identify %d over the wire diverges from the store:\n got %+v\nwant %+v", i, got, want)
		}
		res, err := cli.Verify(rctx, ids[i], probes[i])
		if err != nil {
			t.Fatalf("verify %d after chaos: %v", i, err)
		}
		if !reflect.DeepEqual(res, wantVerify[i]) {
			t.Errorf("verify %d = %+v, want %+v", i, res, wantVerify[i])
		}
	}
}

func countMap(m *sync.Map) int {
	n := 0
	m.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestChaosProxySerialClient drives the legacy-compatible path through a
// faultnet proxy: the client is configured with retries but talks to a
// server through fault-injected forwarding, exercising dial-time faults
// (the proxy's accept failures) alongside stream faults. Smaller than
// the main suite; its job is covering NewProxy, which the matchd chaos
// smoke also uses.
func TestChaosProxyRetriesThrough(t *testing.T) {
	srv := NewServer(nil, nil)
	srv.SetIdleTimeout(2 * time.Second)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx) }()
	defer func() { srv.Close(); <-done }()

	proxy, err := faultnet.NewProxy(addr, faultnet.Faults{
		Seed:        7,
		ResetProb:   0.02,
		LatencyProb: 0.05,
		LatencyMin:  time.Millisecond,
		LatencyMax:  3 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer proxy.Close()

	// The dial includes the handshake, so it goes through clean; every
	// later connection negotiates under faults.
	proxy.SetEnabled(false)
	cli := dialOpts(t, proxy.Addr(), ClientOptions{
		RequestTimeout: 2 * time.Second,
		Retry:          Retry{Attempts: 5, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
	})
	defer cli.Close()
	proxy.SetEnabled(true)

	tpl := testImpressions(t, 1, "D0", 0)[0]
	if err := cli.Enroll(context.Background(), "p0", "D0", tpl); err != nil && !chaosErrOK(err) {
		t.Fatalf("enroll through proxy: %v", err)
	}
	okPings := 0
	for i := 0; i < 60; i++ {
		octx, ocancel := context.WithTimeout(context.Background(), 3*time.Second)
		err := cli.Ping(octx)
		ocancel()
		if err == nil {
			okPings++
		} else if !chaosErrOK(err) {
			t.Fatalf("untyped ping error through proxy: %v", err)
		}
	}
	if okPings == 0 {
		t.Fatal("no ping ever succeeded through the lossy proxy despite retries")
	}
	proxy.SetEnabled(false)
	rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer rcancel()
	if err := cli.Ping(rctx); err != nil {
		t.Fatalf("ping after proxy faults disabled: %v", err)
	}
}
