package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// eachProcs runs body as a subtest at GOMAXPROCS 1 (the inline path),
// 3 (a worker count that divides none of the sizes below) and 4.
func eachProcs(t *testing.T, body func(t *testing.T, procs int)) {
	for _, procs := range []int{1, 3, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			body(t, procs)
		})
	}
}

// noWorkerLeft fails the test unless the goroutine count returns to
// before: a worker that has signalled its WaitGroup may still be on its
// way out when the call that waited for it returns.
func noWorkerLeft(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before it", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

func TestWorkers(t *testing.T) {
	eachProcs(t, func(t *testing.T, procs int) {
		for n, want := range map[int]int{0: 1, 1: 1, 2: min(2, procs), 100: procs} {
			if got := Workers(n); got != want {
				t.Errorf("Workers(%d) = %d, want %d", n, got, want)
			}
		}
	})
}

// TestForVisitsEachIndexOnce: every index once, each on a worker number
// below Workers(n), and nothing left running.
func TestForVisitsEachIndexOnce(t *testing.T) {
	eachProcs(t, func(t *testing.T, procs int) {
		for _, n := range []int{0, 1, 2, 100, 1001} {
			hits := make([]atomic.Int64, n)
			var badWorker atomic.Int64
			before := runtime.NumGoroutine()
			err := For(nil, n, func(w, i int) error {
				if w < 0 || w >= Workers(n) {
					badWorker.Store(int64(w) + 1)
				}
				hits[i].Add(1)
				return nil
			})
			noWorkerLeft(t, before)
			if err != nil {
				t.Fatal(err)
			}
			if w := badWorker.Load(); w != 0 {
				t.Fatalf("n=%d: worker number %d, want below %d", n, w-1, Workers(n))
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d: index %d visited %d times", n, i, got)
				}
			}
		}
	})
}

// TestForErrorsStopNothing: failures leave no index unvisited, and of
// two failing indices the lower one's error is returned, whichever
// fails first in time.
func TestForErrorsStopNothing(t *testing.T) {
	eachProcs(t, func(t *testing.T, procs int) {
		const n = 200
		for _, bad := range [][2]int{{7, 150}, {150, 7}, {0, n - 1}} {
			lo := min(bad[0], bad[1])
			var visited atomic.Int64
			// The higher failure is reached first where the schedule
			// allows: the lower one waits until the higher one is done.
			higherDone := make(chan struct{})
			err := For(nil, n, func(_, i int) error {
				visited.Add(1)
				switch i {
				case max(bad[0], bad[1]):
					close(higherDone)
					return fmt.Errorf("index %d failed", i)
				case lo:
					if procs > 1 {
						<-higherDone
					}
					return fmt.Errorf("index %d failed", i)
				}
				return nil
			})
			if want := fmt.Sprintf("index %d failed", lo); err == nil || err.Error() != want {
				t.Fatalf("failures at %v: error %v, want %q", bad, err, want)
			}
			if got := visited.Load(); got != n {
				t.Fatalf("failures at %v: visited %d of %d", bad, got, n)
			}
		}
	})
}

// TestForStopsClaimingOnDone: a closed done admits no index at all, and
// a worker that sees done closed claims nothing more. Mid-run, every
// index past the one that closes done waits for the close, so each
// other worker holds at most one of them and none claims another.
func TestForStopsClaimingOnDone(t *testing.T) {
	eachProcs(t, func(t *testing.T, procs int) {
		const n = 1000
		closed := make(chan struct{})
		close(closed)
		var calls atomic.Int64
		if err := For(closed, n, func(_, _ int) error { calls.Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != 0 {
			t.Fatalf("%d indices visited after done closed", got)
		}

		const at = 10
		done := make(chan struct{})
		var highest atomic.Int64
		before := runtime.NumGoroutine()
		err := For(done, n, func(_, i int) error {
			for {
				h := highest.Load()
				if int64(i) <= h || highest.CompareAndSwap(h, int64(i)) {
					break
				}
			}
			switch {
			case i == at:
				close(done)
			case i > at:
				<-done
			}
			return nil
		})
		noWorkerLeft(t, before)
		if err != nil {
			t.Fatal(err)
		}
		if h, limit := highest.Load(), int64(at+procs-1); h > limit {
			t.Fatalf("index %d claimed after done closed at index %d (limit %d)", h, at, limit)
		}
	})
}

// TestOrderedConsumesInOrder: every item is produced once and consumed
// once, in index order, on the calling goroutine's schedule, at any
// queue depth.
func TestOrderedConsumesInOrder(t *testing.T) {
	eachProcs(t, func(t *testing.T, procs int) {
		for _, n := range []int{0, 1, 2, 100, 1001} {
			for _, depth := range []int{0, 1, 16, n} {
				produced := make([]atomic.Int64, n)
				next := 0
				before := runtime.NumGoroutine()
				err := Ordered(n, depth, func(i int) (int, error) {
					produced[i].Add(1)
					return i * i, nil
				}, func(i, v int) error {
					if i != next || v != i*i {
						return fmt.Errorf("consumed (%d, %d), want (%d, %d)", i, v, next, next*next)
					}
					next++
					return nil
				})
				noWorkerLeft(t, before)
				if err != nil {
					t.Fatalf("n=%d depth=%d: %v", n, depth, err)
				}
				if next != n {
					t.Fatalf("n=%d depth=%d: consumed %d items", n, depth, next)
				}
				for i := range produced {
					if got := produced[i].Load(); got != 1 {
						t.Fatalf("n=%d depth=%d: item %d produced %d times", n, depth, i, got)
					}
				}
			}
		}
	})
}

// TestOrderedStopsAtFirstError: the first error in index order — of a
// produce or of a consume — is returned and nothing from its index on is
// consumed. Once a consume fails each producer starts at most one more
// item (the one it may have begun as the failure was seen; one more is
// allowed for a consumer descheduled before it returns), and every
// produce call has ended when Ordered returns, a producer blocked on a
// full queue or not. Each produce takes a little while, so producers are
// mid-item when the failure comes.
func TestOrderedStopsAtFirstError(t *testing.T) {
	eachProcs(t, func(t *testing.T, procs int) {
		const n = 500
		errProduce, errConsume := errors.New("produce failed"), errors.New("consume failed")
		for _, c := range []struct {
			name                   string
			badProduce, badConsume int // -1: none
			wantErr                error
			wantConsumed, depth    int
		}{
			{"consume fails, deep queues", -1, 40, errConsume, 40, n},
			{"consume fails, short queues", -1, 40, errConsume, 40, 1},
			{"consume fails first", -1, 0, errConsume, 0, n},
			{"produce fails", 70, -1, errProduce, 70, 16},
			{"produce fails before a consume does", 30, 60, errProduce, 30, 16},
			{"consume fails before a produce does", 60, 30, errConsume, 30, n},
		} {
			workers := Workers(n)
			startedAfterSeen := make([]atomic.Int64, workers)
			var seen, returned atomic.Bool
			var endedAfter atomic.Int64
			consumed := 0
			before := runtime.NumGoroutine()
			err := Ordered(n, c.depth, func(i int) (int, error) {
				if seen.Load() {
					startedAfterSeen[i%workers].Add(1)
				}
				defer func() {
					if returned.Load() {
						endedAfter.Add(1)
					}
				}()
				time.Sleep(50 * time.Microsecond)
				if i == c.badProduce {
					return 0, errProduce
				}
				return i, nil
			}, func(i, v int) error {
				if i == c.badConsume {
					seen.Store(true)
					return errConsume
				}
				if i != consumed || v != i {
					t.Errorf("%s: consumed (%d, %d) at position %d", c.name, i, v, consumed)
				}
				consumed++
				return nil
			})
			returned.Store(true)
			noWorkerLeft(t, before)
			if got := endedAfter.Load(); got != 0 {
				t.Fatalf("%s: %d produce calls ended after Ordered returned", c.name, got)
			}
			for w := range startedAfterSeen {
				if got := startedAfterSeen[w].Load(); got > 2 {
					t.Fatalf("%s: producer %d started %d items after the failure was seen", c.name, w, got)
				}
			}
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("%s: error %v, want %v", c.name, err, c.wantErr)
			}
			if consumed != c.wantConsumed {
				t.Fatalf("%s: consumed %d items, want %d", c.name, consumed, c.wantConsumed)
			}
		}
	})
}
