// Package shard partitions the enrollment gallery across many backends
// — local stores or remote matchd instances — behind one router, so the
// central-matcher deployment the paper's discussion section describes
// can scale horizontally: enrollments spread over shards by consistent
// hashing on subject ID, and every 1:N identification scatter-gathers
// across the healthy shards and merges their shortlists into one global
// top-k with deterministic ordering. With exhaustive per-shard search
// the merged result is bit-identical to a single store holding the same
// enrollments; with per-shard retrieval indexes each shard prunes
// independently, which is the horizontal version of the index's
// recall/speed trade.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/obs"
)

var (
	// ErrNoBackends reports a router constructed without shards.
	ErrNoBackends = errors.New("shard: router needs at least one backend")
	// ErrDuplicateName reports two backends sharing a ring name.
	ErrDuplicateName = errors.New("shard: duplicate backend name")
	// ErrShardTimeout reports a shard that missed the per-shard deadline.
	ErrShardTimeout = errors.New("shard: shard deadline exceeded")
	// ErrDegraded reports an identification refused under FailClosed
	// because a shard is degraded. Nothing else returns it: single-key
	// operations always go to their owner, whatever its standing (the
	// attempt is what readmits a recovered shard), and SkipDegraded
	// serves around the shard instead.
	ErrDegraded = errors.New("shard: backend degraded")
)

// Policy selects how identification treats degraded shards.
type Policy int

const (
	// SkipDegraded serves identification from the healthy shards and
	// reports the reduced coverage in the stats (Partial = true). This
	// is the availability-first posture: a missing shard can only hide
	// mates enrolled on it.
	SkipDegraded Policy = iota
	// FailClosed refuses identification while any shard is degraded or
	// fails mid-search — the integrity-first posture for workloads where
	// a silently partial search is worse than an error.
	FailClosed
)

// Options tunes the router. The zero value gives production defaults.
type Options struct {
	// ShardTimeout is the per-shard identification deadline, counted
	// from the start of the shard's leg and covering a hedged leg's two
	// attempts together; a shard that misses it counts as failed for
	// that search (and toward degradation). 0 disables the deadline. On
	// expiry the leg's context is cancelled and the backend returns, as
	// its contract requires, instead of running to completion.
	ShardTimeout time.Duration
	// FailureThreshold is how many consecutive failures mark a shard
	// degraded (default 3).
	FailureThreshold int
	// Policy selects the degraded-shard behavior (default SkipDegraded).
	Policy Policy
	// HedgeDelay enables hedged identification: a scatter leg still
	// unanswered after the delay is re-sent to the same ring slot — to a
	// different member when the slot is a replica set — and the first
	// answer wins, taming the tail a single slow replica inflicts on
	// every search. The delay adapts per shard to the observed p95
	// identify latency once enough history accumulates (Registry must be
	// set for that); until then — or without a Registry — HedgeDelay
	// itself is the static delay. 0 (the default) disables hedging.
	// Exactly one attempt's answer is used, so results are bit-identical
	// to the unhedged path.
	HedgeDelay time.Duration
	// Registry, when non-nil, receives the router's metric families:
	// per-shard identify latency and health gauges plus scatter fanout
	// and partial-coverage counters. A nil registry costs one branch per
	// operation.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	return o
}

// health is one backend's consecutive-failure state plus the shard's
// metric handles (nil on an unmetered router).
type health struct {
	Health
	met *shardMetrics
}

// Router partitions enrollments across backends by consistent hashing
// on enrollment ID and scatter-gathers identification across them. It
// is safe for concurrent use. The topology is fixed at New: backends,
// ring and health are set once and only read afterwards, so request
// paths take no lock to route.
type Router struct {
	opt Options

	backends []Backend
	ring     *ring
	health   []*health

	// met is non-nil when Options.Registry was set.
	met *routerMetrics
}

// New builds a router over the given backends. Backend names must be
// unique; ring placement depends only on the names, so a router rebuilt
// over the same names routes identically.
func New(backends []Backend, opt Options) (*Router, error) {
	if len(backends) == 0 {
		return nil, ErrNoBackends
	}
	opt = opt.withDefaults()
	names := make([]string, len(backends))
	seen := make(map[string]bool, len(backends))
	for i, b := range backends {
		n := b.Name()
		if seen[n] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateName, n)
		}
		seen[n] = true
		names[i] = n
	}
	r := &Router{
		backends: backends,
		ring:     newRing(names),
		opt:      opt,
		health:   make([]*health, len(backends)),
		met:      newRouterMetrics(opt.Registry),
	}
	for i := range r.health {
		r.health[i] = &health{
			Health: Health{Threshold: int32(opt.FailureThreshold)},
			met:    newShardMetrics(opt.Registry, names[i]),
		}
	}
	return r, nil
}

// Backends returns the shard list in ring-construction order.
func (r *Router) Backends() []Backend { return r.backends }

// Owner returns the position of the shard owning id.
func (r *Router) Owner(id string) int { return r.ring.owner(id) }

// recordCtx updates a shard's health after one backend call made under
// ctx, and its metrics when that flipped the shard's standing.
func (r *Router) recordCtx(ctx context.Context, h *health, err error) {
	ev := h.Record(ctx, err)
	if h.met == nil {
		return
	}
	switch ev {
	case HealthDegraded:
		h.met.degrades.Inc()
		h.met.degraded.Set(1)
	case HealthReadmitted:
		h.met.readmits.Inc()
		h.met.degraded.Set(0)
	}
}

// Degraded returns the positions of currently degraded shards.
func (r *Router) Degraded() []int {
	var out []int
	for i := range r.backends {
		if r.health[i].Degraded() {
			out = append(out, i)
		}
	}
	return out
}

// CheckHealth probes every shard (a Len round trip) and resets the
// health of responsive ones, letting degraded shards rejoin the
// scatter set; errs[i] is non-nil for shards that failed the probe.
// Call it periodically, or after repairing a shard. A cancelled
// context aborts the sweep; unprobed shards report ctx.Err() without a
// health penalty.
func (r *Router) CheckHealth(ctx context.Context) (errs []error) {
	errs = make([]error, len(r.backends))
	for i, b := range r.backends {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		_, err := b.Len(ctx)
		r.recordCtx(ctx, r.health[i], err)
		errs[i] = err
	}
	return errs
}

// routingErr decorates shard-call failures with the shard name.
func routingErr(b Backend, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("shard %q: %w", b.Name(), err)
}

// scatter runs fn(i) on one goroutine per target shard and returns once
// every call has. A router has a handful of shards, so the fan-out needs
// no bound beyond the target list; fn writes only slot i of whatever it
// fills.
func scatter(targets []int, fn func(i int)) {
	var wg sync.WaitGroup
	for _, i := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// EnrollBatch groups the items by owning shard and ships each group in
// one backend batch (one round trip per shard for remote backends, up
// to frame-cap chunking), fanning the per-shard batches out in
// parallel; a single enrollment is a batch of one sent to its owner.
// Enrollment always targets the owner — there is no failover, because
// a mis-placed enrollment would be invisible to Remove/Verify routing.
// Not atomic across shards: when a shard fails, every other shard's
// group is enrolled whole and the failed shard keeps what its own
// EnrollBatch keeps (nothing, if it was unreachable), the joined error
// names only the failed shards, each is charged one health failure per
// call, and re-driving the same batch enrolls the missing groups while
// the ones already enrolled answer ErrDuplicate.
//
// A batch every target shard acknowledged succeeds even when ctx ended
// meanwhile — a durable shard's fsync cannot be cancelled, and the
// write it acknowledged is there. The caller's ctx.Err() outranks the
// shard errors only when some shard failed.
func (r *Router) EnrollBatch(ctx context.Context, items []Enrollment) error {
	if len(items) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	groups := make([][]Enrollment, len(r.backends))
	for _, it := range items {
		i := r.ring.owner(it.ID)
		groups[i] = append(groups[i], it)
	}
	var targets []int
	for i, g := range groups {
		if len(g) > 0 {
			targets = append(targets, i)
		}
	}
	// One slot per shard, so the joined error lists the failed shards in
	// ring-construction order whatever order they failed in.
	errs := make([]error, len(r.backends))
	scatter(targets, func(i int) {
		err := r.backends[i].EnrollBatch(ctx, groups[i])
		r.recordCtx(ctx, r.health[i], err)
		errs[i] = routingErr(r.backends[i], err)
	})
	err := errors.Join(errs...)
	if cerr := ctx.Err(); err != nil && cerr != nil {
		return cerr
	}
	return err
}

// Remove routes the deletion to the shard owning id.
func (r *Router) Remove(ctx context.Context, id string) error {
	i := r.ring.owner(id)
	err := r.backends[i].Remove(ctx, id)
	r.recordCtx(ctx, r.health[i], err)
	return routingErr(r.backends[i], err)
}

// Verify routes the 1:1 comparison to the shard owning id.
func (r *Router) Verify(ctx context.Context, id string, probe *minutiae.Template) (match.Result, error) {
	i := r.ring.owner(id)
	res, err := r.backends[i].Verify(ctx, id, probe)
	r.recordCtx(ctx, r.health[i], err)
	return res, routingErr(r.backends[i], err)
}

// Len sums the enrollment counts of the reachable shards: an
// unreachable shard contributes zero rather than an error. The error is
// the caller's ctx.Err() alone.
func (r *Router) Len(ctx context.Context) (int, error) {
	total := 0
	for i, b := range r.backends {
		n, err := b.Len(ctx)
		r.recordCtx(ctx, r.health[i], err)
		if err == nil {
			total += n
		}
	}
	return total, ctx.Err()
}

// shardAnswer carries one shard's identification result to the merge.
type shardAnswer struct {
	cands []gallery.Candidate
	stats gallery.IdentifyStats
	err   error
}

// attempt is one identify call against a shard. A ReplicaReader is
// asked to avoid the given member (avoid < 0 means unconstrained) and
// reports its landing member on picked; a plain backend has one machine
// behind it, so avoid and picked mean nothing there and are ignored.
func attempt(ctx context.Context, b Backend, probe *minutiae.Template, k, avoid int, picked chan<- int) (ans shardAnswer) {
	if rr, ok := b.(ReplicaReader); ok {
		ans.cands, ans.stats, ans.err = rr.IdentifyDetailedAvoiding(ctx, probe, k, avoid, picked)
	} else {
		ans.cands, ans.stats, ans.err = b.IdentifyDetailed(ctx, probe, k)
	}
	return ans
}

// leg is shard i's share of a search, run on the scatter goroutine
// itself: one deadline (ShardTimeout from now, when set) bounds the
// whole leg — both attempts of a hedged one — and the backend is called
// synchronously, because the Backend contract has every call return
// promptly once its context is done. A failure is mapped once, here:
// the caller's own context giving up reports ctx.Err() (and outranks
// whatever error the shard produced on the way out), the leg deadline
// alone reports ErrShardTimeout, anything else is the backend's error.
// The shard's latency and health are recorded before returning.
func (r *Router) leg(ctx context.Context, i int, probe *minutiae.Template, k int) shardAnswer {
	b, h := r.backends[i], r.health[i]
	var t0 time.Time
	if h.met != nil {
		t0 = time.Now()
	}
	lctx := ctx
	if r.opt.ShardTimeout > 0 {
		var cancel context.CancelFunc
		lctx, cancel = context.WithTimeout(ctx, r.opt.ShardTimeout)
		defer cancel()
	}
	var ans shardAnswer
	if delay := r.hedgeDelay(h); delay > 0 {
		ans = r.hedged(lctx, b, delay, probe, k)
	} else {
		ans = attempt(lctx, b, probe, k, -1, nil)
	}
	switch {
	case ans.err == nil || lctx.Err() == nil:
		// The backend's own answer stands.
	case ctx.Err() != nil:
		ans.err = ctx.Err()
	default:
		ans.err = ErrShardTimeout
	}
	if h.met != nil {
		h.met.lat.ObserveSince(t0)
	}
	r.recordCtx(ctx, h, ans.err)
	return ans
}

// hedgeMinSamples is how much latency history a shard needs before its
// hedge delay adapts to the observed p95 instead of the static option.
const hedgeMinSamples = 32

// hedgeDelay returns the delay before re-sending a scatter leg to this
// shard; 0 means hedging is off.
func (r *Router) hedgeDelay(h *health) time.Duration {
	if r.opt.HedgeDelay <= 0 {
		return 0
	}
	if h.met != nil && h.met.lat.Count() >= hedgeMinSamples {
		if p95 := h.met.lat.Quantile(0.95); p95 > 0 {
			return time.Duration(p95)
		}
	}
	return r.opt.HedgeDelay
}

// hedged is a leg's backend call with tail hedging: if the first
// attempt is still unanswered after delay, a second identical attempt
// races it and the first success wins. The loser is cancelled and its
// answer discarded — exactly one attempt's result is used, so the
// output is bit-identical to the unhedged path. A failure before the
// hedge fires returns immediately (retrying errors is the client retry
// policy's job, not the hedger's); once both attempts are in flight,
// one failure waits for the other attempt, and only two failures fail
// the leg (with the first attempt's error). Both attempts run under the
// leg's context, so its deadline ends the race too.
//
// When the slot is a replica set, the hedge is steered away from the
// member the first attempt landed on: the set reports its pick on a
// buffered channel at dispatch time — before the (potentially slow)
// identify runs — so by the time the hedge delay has elapsed the
// member to avoid is known without waiting for the stuck attempt.
func (r *Router) hedged(ctx context.Context, b Backend, delay time.Duration, probe *minutiae.Template, k int) shardAnswer {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		ans   shardAnswer
		hedge bool
	}
	ch := make(chan result, 2) // one send per attempt, so the loser never blocks
	picked := make(chan int, 1)
	go func() { ch <- result{ans: attempt(ctx, b, probe, k, -1, picked)} }()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var (
		fired  bool
		failed int
		first  shardAnswer // the first attempt's answer, once it has failed
	)
	for {
		select {
		case <-timer.C:
			fired = true
			if r.met != nil {
				r.met.hedgesFired.Inc()
			}
			avoid := -1
			select {
			case avoid = <-picked:
			default:
				// The first attempt has not even dispatched (or the
				// backend has no replicas); hedge unconstrained.
			}
			go func() { ch <- result{ans: attempt(ctx, b, probe, k, avoid, nil), hedge: true} }()
		case res := <-ch:
			if res.ans.err == nil {
				if r.met != nil && fired {
					if res.hedge {
						r.met.hedgesWon.Inc()
					} else {
						r.met.hedgesWasted.Inc()
					}
				}
				return res.ans
			}
			if !res.hedge {
				first = res.ans
			}
			failed++
			if !fired || failed == 2 {
				return first
			}
		}
	}
}

// IdentifyDetailed scatter-gathers the probe across the shards and
// returns the global top-k candidates (all of them when k <= 0),
// ordered by descending score with deterministic ID tie-breaks, plus
// the search's statistics. Each shard is asked for its local top-k;
// merging the per-shard shortlists yields the same result a single
// store would produce, because any candidate in the global top-k is
// necessarily in its own shard's top-k. Under SkipDegraded, failed or
// skipped shards reduce coverage (stats.Partial); under FailClosed they
// fail the search.
//
// The statistics sum the answering legs' own (Indexed: every one was),
// so a router over fronts reports the stores under them; a skipped or
// failed leg counts as one shard, as nothing reports what stood behind.
//
// A cancelled or expired ctx unblocks the scatter promptly — every leg
// runs under it, so the in-flight shard calls return — and the search
// reports ctx.Err() without penalizing any shard's health. The router
// remains reusable for subsequent searches.
func (r *Router) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	var stats gallery.IdentifyStats
	if probe == nil {
		return nil, stats, match.ErrNilTemplate
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	if k < 0 {
		// The same full-ranking normalization gallery.Store applies, so
		// degenerate k means one thing on every serving path (and never
		// reaches the wire, where k travels unsigned).
		k = 0
	}
	n := len(r.backends)
	targets := make([]int, 0, n)
	for i := range r.backends {
		if r.health[i].Degraded() {
			if r.opt.Policy == FailClosed {
				return nil, stats, fmt.Errorf("shard %q: %w", r.backends[i].Name(), ErrDegraded)
			}
			stats.ShardsSkipped++
			continue
		}
		targets = append(targets, i)
	}

	answers := make([]shardAnswer, n)
	scatter(targets, func(i int) { answers[i] = r.leg(ctx, i, probe, k) })
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}

	stats.Indexed = len(targets) > 0 // an all-failed search is an error below
	var merged []gallery.Candidate
	failed := 0 // legs, whatever stood behind each
	for _, i := range targets {
		ans := answers[i]
		if ans.err != nil {
			failed++
			stats.ShardsQueried++
			stats.ShardsFailed++
			if r.opt.Policy == FailClosed {
				return nil, stats, fmt.Errorf("shard %q: %w", r.backends[i].Name(), ans.err)
			}
			continue
		}
		stats.GallerySize += ans.stats.GallerySize
		stats.Shortlist += ans.stats.Shortlist
		stats.Scanned += ans.stats.Scanned
		stats.Indexed = stats.Indexed && ans.stats.Indexed
		stats.ShardsQueried += ans.stats.ShardsQueried
		stats.ShardsSkipped += ans.stats.ShardsSkipped
		stats.ShardsFailed += ans.stats.ShardsFailed
		merged = append(merged, ans.cands...)
	}
	stats.Partial = stats.ShardsSkipped+stats.ShardsFailed > 0
	if r.met != nil {
		r.met.searches.Inc()
		r.met.fanout.Observe(int64(len(targets)))
		if stats.Partial {
			r.met.partial.Inc()
		}
	}
	if failed > 0 && failed == len(targets) {
		// Every queried shard failed: that is an outage, not an empty
		// gallery.
		return nil, stats, fmt.Errorf("shard: all %d queried shards failed", failed)
	}

	sort.Slice(merged, func(a, b int) bool {
		if merged[a].Score != merged[b].Score {
			return merged[a].Score > merged[b].Score
		}
		return merged[a].ID < merged[b].ID
	})
	if k > 0 && k < len(merged) {
		merged = merged[:k]
	}
	if merged == nil {
		merged = []gallery.Candidate{}
	}
	return merged, stats, nil
}
