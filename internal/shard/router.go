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
	// Workers bounds the goroutines fanning a search across shards
	// (default: one per shard).
	Workers int
	// ShardTimeout is the per-shard identification deadline; a shard
	// that misses it counts as failed for that search (and toward
	// degradation). 0 disables the deadline. On expiry the router stops
	// waiting and cancels the shard's context, so a context-honoring
	// backend unwinds promptly instead of running to completion.
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

	// scratch recycles per-identification fan-out state (answer slots
	// and target lists) across searches; the per-worker matcher scratch
	// itself lives in each local shard's gallery sessions.
	scratch sync.Pool
}

// identifyScratch is the reusable fan-out state of one identification.
type identifyScratch struct {
	answers []shardAnswer
	targets []int
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

// Enroll routes the template to the shard owning id. Enrollment always
// targets the owner — there is no failover, because a mis-placed
// enrollment would be invisible to Remove/Verify routing.
func (r *Router) Enroll(ctx context.Context, id, deviceID string, tpl *minutiae.Template) error {
	i := r.ring.owner(id)
	err := r.backends[i].Enroll(ctx, id, deviceID, tpl)
	r.recordCtx(ctx, r.health[i], err)
	return routingErr(r.backends[i], err)
}

// EnrollBatch groups the items by owning shard and ships each group in
// one backend batch (one round trip per shard for remote backends, up
// to frame-cap chunking), fanning the per-shard batches out in
// parallel. Not atomic across shards: when a shard fails, every other
// shard's group is enrolled whole and the failed shard keeps what its
// own EnrollBatch keeps (nothing, if it was unreachable), the joined
// error names only the failed shards, each is charged one health
// failure per call, and re-driving the same batch enrolls the missing
// groups while the ones already enrolled answer ErrDuplicate.
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
	workers := r.fanout(len(r.backends))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		errs []error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(groups) {
					return
				}
				if len(groups[i]) == 0 {
					continue
				}
				err := r.backends[i].EnrollBatch(ctx, groups[i])
				r.recordCtx(ctx, r.health[i], err)
				if err != nil {
					mu.Lock()
					errs = append(errs, routingErr(r.backends[i], err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return errors.Join(errs...)
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

// Len sums the enrollment counts of the reachable shards (unreachable
// shards contribute zero).
func (r *Router) Len(ctx context.Context) int {
	total := 0
	for i, b := range r.backends {
		n, err := b.Len(ctx)
		r.recordCtx(ctx, r.health[i], err)
		if err == nil {
			total += n
		}
	}
	return total
}

// ShardIdentifyStats is one shard's contribution to a search.
type ShardIdentifyStats struct {
	// Shard is the backend name.
	Shard string
	// Stats is the shard-local retrieval detail (zero when the shard was
	// skipped or failed).
	Stats gallery.IdentifyStats
	// Skipped reports a degraded shard that was not queried.
	Skipped bool
	// Err is the failure message when the query errored or timed out.
	Err string
}

// IdentifyStats aggregates a scatter-gather search.
type IdentifyStats struct {
	// GallerySize, Shortlist, and Scanned are summed over the shards
	// that answered.
	GallerySize int
	Shortlist   int
	Scanned     int
	// IndexedShards and FallbackShards count how many answering shards
	// served from their retrieval index vs an exhaustive scan.
	IndexedShards  int
	FallbackShards int
	// ShardsQueried, ShardsSkipped, and ShardsFailed partition the
	// shard set for this search.
	ShardsQueried int
	ShardsSkipped int
	ShardsFailed  int
	// Partial reports incomplete coverage: at least one shard was
	// skipped or failed, so a mate enrolled there could be missing.
	Partial bool
	// PerShard holds every shard's detail in backend order.
	PerShard []ShardIdentifyStats
}

// shardAnswer carries one shard's identification result to the merge.
type shardAnswer struct {
	cands []gallery.Candidate
	stats gallery.IdentifyStats
	err   error
}

// fanout bounds the scatter worker count.
func (r *Router) fanout(n int) int {
	w := r.opt.Workers
	if w <= 0 || w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// callIdentify runs one shard search under the per-shard deadline and
// the caller's context. When neither can fire, the backend is called
// synchronously. Otherwise the call runs in its own goroutine so the
// router can stop waiting the moment the shard deadline or the caller's
// context expires: a missed shard deadline reports ErrShardTimeout, a
// done caller context reports ctx.Err(). Either way the shard's derived
// context is cancelled, so a context-honoring backend unwinds promptly
// (the abandoning goroutine drains into a buffered channel regardless).
//
// When the backend is a ReplicaReader the attempt avoids the given
// member (avoid < 0 means unconstrained) and reports its landing member
// on picked. Plain backends have one machine behind them — avoid and
// picked are meaningless and ignored.
func (r *Router) callIdentify(ctx context.Context, b Backend, probe *minutiae.Template, k int, avoid int, picked chan<- int) shardAnswer {
	sctx := ctx
	if r.opt.ShardTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, r.opt.ShardTimeout)
		defer cancel()
	}
	call := func(cctx context.Context) shardAnswer {
		if rr, ok := b.(ReplicaReader); ok {
			cands, stats, err := rr.IdentifyDetailedAvoiding(cctx, probe, k, avoid, picked)
			return shardAnswer{cands: cands, stats: stats, err: err}
		}
		cands, stats, err := b.IdentifyDetailed(cctx, probe, k)
		return shardAnswer{cands: cands, stats: stats, err: err}
	}
	if sctx.Done() == nil {
		return call(sctx)
	}
	ch := make(chan shardAnswer, 1)
	go func() {
		ch <- call(sctx)
	}()
	select {
	case ans := <-ch:
		return ans
	case <-sctx.Done():
		if err := ctx.Err(); err != nil {
			return shardAnswer{err: err}
		}
		return shardAnswer{err: ErrShardTimeout}
	}
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
	if h != nil && h.met != nil && h.met.lat.Count() >= hedgeMinSamples {
		if p95 := h.met.lat.Quantile(0.95); p95 > 0 {
			return time.Duration(p95)
		}
	}
	return r.opt.HedgeDelay
}

// callIdentifyHedged is callIdentify with tail hedging: if the primary
// attempt is still unanswered after the shard's hedge delay, a second
// identical attempt races it and the first success wins. The loser is
// cancelled and its answer discarded — exactly one attempt's result is
// used, so the output is bit-identical to the unhedged path. A failure
// before the hedge fires returns immediately (retrying errors is the
// client retry policy's job, not the hedger's); once both attempts are
// in flight, one failure waits for the other attempt, and only two
// failures fail the leg (preferring the primary's error).
//
// When the slot is a replica set, the hedge is steered away from the
// member the primary attempt landed on: the set reports its pick on a
// buffered channel at dispatch time — before the (potentially slow)
// identify runs — so by the time the hedge delay has elapsed the
// member to avoid is known without waiting for the stuck attempt.
func (r *Router) callIdentifyHedged(ctx context.Context, b Backend, h *health, probe *minutiae.Template, k int) shardAnswer {
	delay := r.hedgeDelay(h)
	if delay <= 0 {
		return r.callIdentify(ctx, b, probe, k, -1, nil)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type attempt struct {
		ans    shardAnswer
		hedged bool
	}
	ch := make(chan attempt, 2)
	picked := make(chan int, 1)
	launch := func(hedged bool, avoid int, report chan<- int) {
		go func() {
			ch <- attempt{ans: r.callIdentify(actx, b, probe, k, avoid, report), hedged: hedged}
		}()
	}
	launch(false, -1, picked)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	hedgeFired := false
	var primErr, hedgeErr *shardAnswer
	for {
		select {
		case <-timer.C:
			if !hedgeFired {
				hedgeFired = true
				if r.met != nil {
					r.met.hedgesFired.Inc()
				}
				avoid := -1
				select {
				case avoid = <-picked:
				default:
					// The primary attempt has not even dispatched (or the
					// backend has no replicas); hedge unconstrained.
				}
				launch(true, avoid, nil)
			}
		case a := <-ch:
			if a.ans.err == nil {
				if r.met != nil && hedgeFired {
					if a.hedged {
						r.met.hedgesWon.Inc()
					} else {
						r.met.hedgesWasted.Inc()
					}
				}
				return a.ans
			}
			ans := a.ans
			if a.hedged {
				hedgeErr = &ans
			} else {
				primErr = &ans
			}
			if !hedgeFired {
				return *primErr
			}
			if primErr != nil && hedgeErr != nil {
				return *primErr
			}
		}
	}
}

// Identify scatter-gathers the probe across the shards and returns the
// global top-k candidates (all of them when k <= 0), ordered by
// descending score with deterministic ID tie-breaks.
func (r *Router) Identify(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, error) {
	out, _, err := r.IdentifyDetailed(ctx, probe, k)
	return out, err
}

// IdentifyDetailed is Identify plus per-shard and aggregate statistics.
// Each shard is asked for its local top-k; merging the per-shard
// shortlists yields the same result a single store would produce,
// because any candidate in the global top-k is necessarily in its own
// shard's top-k. Under SkipDegraded, failed or skipped shards reduce
// coverage (stats.Partial); under FailClosed they fail the search.
//
// A cancelled or expired ctx unblocks the scatter promptly — in-flight
// shard calls are cancelled and abandoned — and the search returns
// ctx.Err() without penalizing any shard's health. The router remains
// reusable for subsequent searches.
func (r *Router) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, IdentifyStats, error) {
	if probe == nil {
		return nil, IdentifyStats{}, match.ErrNilTemplate
	}
	if err := ctx.Err(); err != nil {
		return nil, IdentifyStats{}, err
	}
	if k < 0 {
		// The same full-ranking normalization gallery.Store applies, so
		// degenerate k means one thing on every serving path (and never
		// reaches the wire, where k travels unsigned).
		k = 0
	}
	n := len(r.backends)
	stats := IdentifyStats{PerShard: make([]ShardIdentifyStats, n)}
	sc, _ := r.scratch.Get().(*identifyScratch)
	if sc == nil {
		sc = &identifyScratch{}
	}
	if cap(sc.answers) < n {
		sc.answers = make([]shardAnswer, n)
	}
	defer func() {
		// Drop candidate references before pooling so a recycled scratch
		// cannot pin a previous search's shortlists in memory.
		clear(sc.answers[:cap(sc.answers)])
		sc.targets = sc.targets[:0]
		r.scratch.Put(sc)
	}()
	targets := sc.targets[:0]
	for i := range r.backends {
		stats.PerShard[i].Shard = r.backends[i].Name()
		if r.health[i].Degraded() {
			if r.opt.Policy == FailClosed {
				return nil, stats, fmt.Errorf("shard %q: %w", r.backends[i].Name(), ErrDegraded)
			}
			stats.PerShard[i].Skipped = true
			stats.ShardsSkipped++
			stats.Partial = true
			continue
		}
		targets = append(targets, i)
	}
	sc.targets = targets

	answers := sc.answers[:n]
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
	)
	workers := r.fanout(len(targets))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				ti := next
				next++
				mu.Unlock()
				if ti >= len(targets) {
					return
				}
				i := targets[ti]
				var t0 time.Time
				if r.health[i].met != nil {
					t0 = time.Now()
				}
				answers[i] = r.callIdentifyHedged(ctx, r.backends[i], r.health[i], probe, k)
				if m := r.health[i].met; m != nil {
					m.lat.ObserveSince(t0)
				}
				r.recordCtx(ctx, r.health[i], answers[i].err)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}

	var merged []gallery.Candidate
	for _, i := range targets {
		ans := answers[i]
		stats.ShardsQueried++
		if ans.err != nil {
			stats.PerShard[i].Err = ans.err.Error()
			stats.ShardsFailed++
			stats.Partial = true
			if r.opt.Policy == FailClosed {
				return nil, stats, fmt.Errorf("shard %q: %w", r.backends[i].Name(), ans.err)
			}
			continue
		}
		stats.PerShard[i].Stats = ans.stats
		stats.GallerySize += ans.stats.GallerySize
		stats.Shortlist += ans.stats.Shortlist
		stats.Scanned += ans.stats.Scanned
		if ans.stats.Indexed {
			stats.IndexedShards++
		} else {
			stats.FallbackShards++
		}
		merged = append(merged, ans.cands...)
	}
	if r.met != nil {
		r.met.searches.Inc()
		r.met.fanout.Observe(int64(len(targets)))
		if stats.Partial {
			r.met.partial.Inc()
		}
	}
	if stats.ShardsQueried == stats.ShardsFailed && stats.ShardsFailed > 0 {
		// Every queried shard failed: that is an outage, not an empty
		// gallery.
		return nil, stats, fmt.Errorf("shard: all %d queried shards failed", stats.ShardsFailed)
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
