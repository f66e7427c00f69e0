package matchsvc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
)

// setProcs sets GOMAXPROCS — a store's scan worker count — to n for
// the rest of the test.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// countingMatcher counts comparisons as they start and makes each one
// slow enough that "one more comparison" is far longer than any
// scheduling slop between a client giving up and its server noticing.
type countingMatcher struct {
	started atomic.Int64
	each    time.Duration
}

func (m *countingMatcher) Match(g, p *minutiae.Template) (match.Result, error) {
	m.started.Add(1)
	time.Sleep(m.each)
	return match.Result{Score: 0.5}, nil
}

const (
	scanWorkers = 2
	scanEntries = 300 // × 10 ms ÷ 2 workers: 1.5 s for a scan left running
)

// slowScanServer serves a gallery whose exhaustive identify takes 1.5 s
// on scanWorkers workers, and returns the matcher's counter.
func slowScanServer(t *testing.T) (*Client, *countingMatcher) {
	t.Helper()
	m := &countingMatcher{each: 10 * time.Millisecond}
	setProcs(t, scanWorkers)
	store := gallery.New(m)
	tpl := testImpressions(t, 1, "D0", 0)[0]
	for i := 0; i < scanEntries; i++ {
		if err := store.Enroll(fmt.Sprintf("s-%03d", i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
	}
	cli, _ := startServerOn(t, store)
	return cli, m
}

// settled waits for the server's scan to stop moving and returns the
// final comparison count.
func (m *countingMatcher) settled() int64 {
	last := m.started.Load()
	for {
		time.Sleep(5 * m.each)
		now := m.started.Load()
		if now == last {
			return now
		}
		last = now
	}
}

// TestWireBudgetStopsServerScan: the deadline rides the wire. An
// exhaustive identify under a 60 ms context deadline stops on the
// server too: once the client has returned, each scan worker starts at
// most one more comparison.
func TestWireBudgetStopsServerScan(t *testing.T) {
	cli, m := slowScanServer(t)
	probe := testImpressions(t, 1, "D1", 1)[0]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, _, err := cli.IdentifyEx(ctx, probe, 0)
	atReturn := m.started.Load()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("identify under a 60ms deadline: %v, want DeadlineExceeded", err)
	}
	final := m.settled()
	if final-atReturn > scanWorkers {
		t.Fatalf("server ran %d comparisons after its caller's deadline (%d → %d), want at most one per scan worker (%d)",
			final-atReturn, atReturn, final, scanWorkers)
	}
	if final >= scanEntries {
		t.Fatalf("server scanned the whole gallery (%d comparisons) for a caller that left after 60ms", final)
	}
	// The fallback request timeout travels the same way for callers
	// whose context has no deadline.
	bounded := dialOpts(t, cli.addr, ClientOptions{RequestTimeout: 60 * time.Millisecond})
	defer bounded.Close()
	before := m.started.Load()
	if _, _, err := bounded.IdentifyEx(context.Background(), probe, 0); err == nil {
		t.Fatal("identify outran a 60ms request timeout")
	}
	if ran := m.settled() - before; ran >= scanEntries {
		t.Fatalf("request-timeout fallback did not reach the server: %d comparisons", ran)
	}
}

// TestConnectionDropStopsServerScan: with no budget at all, the
// connection is the caller's lifeline — closing it mid-identify stops
// the scan within one comparison per worker.
func TestConnectionDropStopsServerScan(t *testing.T) {
	cli, m := slowScanServer(t)
	probe := testImpressions(t, 1, "D1", 1)[0]
	done := make(chan error, 1)
	go func() {
		_, _, err := cli.IdentifyEx(context.Background(), probe, 0)
		done <- err
	}()
	for m.started.Load() < 4*scanWorkers { // the scan is under way
		time.Sleep(time.Millisecond)
	}
	cli.Close()
	atClose := m.started.Load()
	if err := <-done; err == nil {
		t.Fatal("identify survived its client closing")
	}
	final := m.settled()
	if final-atClose > scanWorkers {
		t.Fatalf("server ran %d comparisons after the connection dropped (%d → %d), want at most one per scan worker (%d)",
			final-atClose, atClose, final, scanWorkers)
	}
}

// TestWireBudgetRounding pins the envelope field's arithmetic: rounded
// up so the server never gives up before its caller, 0 only for "no
// bound", clamped at the field's width.
func TestWireBudgetRounding(t *testing.T) {
	bg := context.Background()
	if b := wireBudget(bg, 0); b != 0 {
		t.Fatalf("no deadline, no fallback: budget %d, want 0 (unbounded)", b)
	}
	if b := wireBudget(bg, 1500*time.Microsecond); b != 2 {
		t.Fatalf("1.5ms fallback: budget %d, want 2 (rounded up)", b)
	}
	expired, cancel := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancel()
	if b := wireBudget(expired, time.Minute); b != 1 {
		t.Fatalf("expired deadline: budget %d, want 1 (never 0 = unbounded, never the fallback)", b)
	}
	far, cancel2 := context.WithTimeout(bg, 100*24*time.Hour)
	defer cancel2()
	if b := wireBudget(far, 0); b != 1<<32-1 {
		t.Fatalf("100-day deadline: budget %d, want the field's maximum", b)
	}
}
