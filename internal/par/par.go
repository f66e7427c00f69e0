// Package par is the repository's one fan-out: how many goroutines share
// a piece of work, how they claim it and which error wins. For visits
// independent indices in any order (a scan, a bulk preparation, the
// study's comparisons); Ordered produces on every CPU and consumes in
// index order (a batch insert, an index bulk build). Both are sized by
// GOMAXPROCS and nothing else, so CI varies the worker count the way it
// varies every schedule (-cpu 1,4), and every worker has exited when
// they return.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns how many goroutines For and Ordered run for n items:
// GOMAXPROCS, but no more than n and at least one.
func Workers(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n)) }

// For calls fn(w, i) once for every i in [0, n) on Workers(n) goroutines
// that claim indices from one counter; w, below Workers(n), names the
// worker making the call, so a caller can hand each worker its own
// scratch. A failing call stops nothing: For returns the error of the
// lowest failing index, whatever the schedule. Once done closes no index
// is claimed, so some may go unvisited; the caller reads done to tell. A
// nil done never closes. With one worker fn runs on the calling goroutine.
func For(done <-chan struct{}, n int, fn func(w, i int) error) error {
	var (
		next   atomic.Int64
		mu     sync.Mutex // guards errIdx and first
		errIdx = n
		first  error
	)
	work := func(w int) {
		for {
			select {
			case <-done:
				return
			default:
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(w, i); err != nil {
				mu.Lock()
				if i < errIdx {
					errIdx, first = i, err
				}
				mu.Unlock()
			}
		}
	}
	workers := Workers(n)
	if workers == 1 {
		work(0)
		return first
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
	return first
}

// Ordered calls produce(i) for every i in [0, n) on Workers(n) goroutines
// and consume(i, v) with each result, in index order, on the calling
// goroutine, as soon as that result and all before it are ready. Worker w
// produces items w, w+Workers(n), ... into its own queue of up to depth
// results, so a few are live at a time, not n; a depth of n never blocks
// a producer. The first error in index order, of produce or of consume,
// ends the run: nothing from its index on is consumed, no item is
// produced once it is seen, and Ordered returns it.
func Ordered[T any](n, depth int, produce func(i int) (T, error), consume func(i int, v T) error) error {
	workers := Workers(n)
	type result struct {
		v   T
		err error
	}
	// Item i is the next receive from queue i%workers. Closing done on
	// return releases a producer blocked on a full queue.
	out := make([]chan result, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(done); wg.Wait() }()
	for w := range out {
		out[w] = make(chan result, min(depth, (n-w+workers-1)/workers))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				select {
				case <-done:
					return
				default:
				}
				v, err := produce(i)
				select {
				case out[w] <- result{v, err}:
				case <-done:
					return
				}
				if err != nil {
					return
				}
			}
		}()
	}
	for i := range n {
		r := <-out[i%workers]
		if r.err == nil {
			r.err = consume(i, r.v)
		}
		if r.err != nil {
			return r.err
		}
	}
	return nil
}
