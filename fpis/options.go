package fpis

import (
	"errors"
	"fmt"
	"time"

	"fpinterop/internal/matchsvc"
	"fpinterop/internal/obs"
	"fpinterop/internal/shard"
	"fpinterop/internal/topology"
)

// Option configures Service construction (New and Dial). Options that
// do not apply to the requested deployment shape are rejected at
// construction time rather than silently ignored.
type Option func(*config) error

// config collects the functional options: the deployment description
// itself, plus set* flags that distinguish "left at default" from
// "explicitly configured" for the applicability checks.
type config struct {
	topology.Config

	setCompactEvery   bool
	setParallelism    bool
	setShardTimeout   bool
	setRequestTimeout bool
	setDialTimeout    bool
	setPoolSize       bool
	setRetry          bool

	hooks *obs.Hooks
}

// WithIndex enables the minutia-triplet retrieval index, so 1:N
// identification searches a candidate shortlist instead of the whole
// gallery. fanout is the shortlist size (<= 0 for the library
// default). Applies to local stores — including each shard under
// WithLocalShards — not to remote connections, where the index lives
// in the serving process.
func WithIndex(fanout int) Option {
	return func(c *config) error {
		if fanout < 0 {
			return fmt.Errorf("fpis: WithIndex fanout must be >= 0, got %d", fanout)
		}
		c.Index = true
		c.IndexFanout = fanout
		return nil
	}
}

// WithWAL makes every mutation durable through a per-shard write-ahead
// log rooted at dir: an acknowledged Enroll or Remove survives a crash
// of the process, and construction replays the log (after restoring the
// latest compaction snapshot) before the service accepts its first
// request. Each shard of a WithLocalShards deployment logs into its own
// subdirectory of dir, so growing the shard count later reuses nothing
// stale. Applies to in-process galleries — a single local store or
// WithLocalShards — not to remote connections, where durability belongs
// to the serving process (run matchd with -wal-dir there).
func WithWAL(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return errors.New("fpis: WithWAL needs a directory")
		}
		c.WALDir = dir
		return nil
	}
}

// WithWALCompactEvery compacts each shard's write-ahead log into a
// snapshot after every n logged mutations, bounding replay work on the
// next startup. n <= 0 disables automatic compaction (the log grows
// until the service is rebuilt). Requires WithWAL.
func WithWALCompactEvery(n int) Option {
	return func(c *config) error {
		if n < 0 {
			n = 0
		}
		c.CompactEvery = n
		c.setCompactEvery = true
		return nil
	}
}

// WithLocalShards partitions the gallery across n in-process stores
// behind a consistent-hash router. Mutually exclusive with WithShards.
func WithLocalShards(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("fpis: WithLocalShards needs n > 0, got %d", n)
		}
		c.LocalShards = n
		return nil
	}
}

// WithShards scatter-gathers over remote matchd processes at the given
// addresses, routing enrollments by subject ID. Mutually exclusive
// with WithLocalShards and WithIndex (indexing belongs to the shard
// processes that own the data).
func WithShards(addrs ...string) Option {
	return func(c *config) error {
		if len(addrs) == 0 {
			return errors.New("fpis: WithShards needs at least one address")
		}
		c.Shards = append([]string(nil), addrs...)
		return nil
	}
}

// WithReplicas attaches read replicas to each WithShards slot: the
// i-th argument lists the replica addresses for the i-th shard address
// (run each replica as matchd -replica-of <primary>). Writes still go
// only to the primary; Verify and Identify balance across the slot's
// healthy members and fail over inside the slot, and hedged identifies
// are steered to a different member than the attempt they race. The
// argument count must match WithShards exactly — an empty (or nil)
// list is valid for a slot with no replicas. Requires WithShards.
func WithReplicas(replicas ...[]string) Option {
	return func(c *config) error {
		if len(replicas) == 0 {
			return errors.New("fpis: WithReplicas needs one replica list per shard slot")
		}
		out := make([][]string, len(replicas))
		for i, rs := range replicas {
			out[i] = append([]string(nil), rs...)
		}
		c.Replicas = out
		return nil
	}
}

// WithParallelism bounds the worker goroutines of each in-process
// store: its exhaustive-scan fan-out and its batch-enrollment derive
// workers. n <= 0 restores the default (GOMAXPROCS per store). A
// WithShards front holds no store, so New rejects the option there, as
// Dial does.
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 0 {
			n = 0
		}
		c.Parallelism = n
		c.setParallelism = true
		return nil
	}
}

// WithShardTimeout bounds each shard's share of an identification; a
// shard that misses the deadline is abandoned (and counts toward
// degradation) while the healthy shards' answers are merged. Requires
// a sharded deployment. 0 disables the per-shard deadline.
func WithShardTimeout(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("fpis: WithShardTimeout must be >= 0, got %v", d)
		}
		c.ShardTimeout = d
		c.setShardTimeout = true
		return nil
	}
}

// WithRequestTimeout sets the fallback wire round-trip bound used when
// a call's context carries no deadline of its own. Applies to remote
// connections (Dial and WithShards). 0 disables the fallback.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("fpis: WithRequestTimeout must be >= 0, got %v", d)
		}
		c.Client.RequestTimeout = d
		c.setRequestTimeout = true
		return nil
	}
}

// WithDialTimeout bounds each connection attempt — TCP connect plus
// protocol handshake — of a remote connection: the constructor's dial
// (on top of its context) and the transparent reconnects after a
// transport failure (on top of the triggering request's context).
// Applies to remote connections. 0 falls back to WithRequestTimeout,
// and with neither set an attempt is bounded by its context alone.
func WithDialTimeout(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("fpis: WithDialTimeout must be >= 0, got %v", d)
		}
		c.Client.RedialTimeout = d
		c.setDialTimeout = true
		return nil
	}
}

// RetryPolicy configures transparent retries of idempotent remote
// operations (Verify, Identify, Stats — never Enroll or Remove, which
// could double-apply) after transport failures: connection resets, torn
// frames, corrupt envelopes, a server restarting. Server-reported
// errors and context cancellation are never retried.
//
// Attempts is the total number of tries including the first; values
// below 2 disable retries. BaseDelay seeds the capped exponential
// backoff before the second attempt (default 5ms); each further attempt
// doubles it, jittered, up to MaxDelay (default 500ms).
type RetryPolicy = matchsvc.Retry

// WithPoolSize sets how many connections each remote endpoint may pool
// (default 1). Connections are dialed on demand; against a multiplexed
// server one connection already carries concurrent requests, so the
// pool is for spreading load and surviving per-connection stalls, not a
// per-request requirement. Applies to remote connections (Dial and
// WithShards).
func WithPoolSize(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("fpis: WithPoolSize needs n >= 1, got %d", n)
		}
		c.Client.PoolSize = n
		c.setPoolSize = true
		return nil
	}
}

// WithRetry enables transparent retries of idempotent remote operations
// after transport failures, with capped jittered exponential backoff.
// Applies to remote connections (Dial and WithShards); retries are off
// by default.
func WithRetry(p RetryPolicy) Option {
	return func(c *config) error {
		if p.Attempts < 0 || p.BaseDelay < 0 || p.MaxDelay < 0 {
			return fmt.Errorf("fpis: WithRetry fields must be >= 0, got %+v", p)
		}
		c.Client.Retry = p
		c.setRetry = true
		return nil
	}
}

// WithKeepalive sets the interval at which idle pooled connections are
// pinged so a server's idle deadline never silently drops them (default
// 50s, under matchd's 2-minute default); d <= 0 disables keepalives.
// Applies to remote connections (Dial and WithShards).
func WithKeepalive(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			d = -1 // ClientOptions keeps 0 for "the client default"
		}
		c.Client.Keepalive = d
		return nil
	}
}

// WithHedging enables hedged identification: a shard's scatter leg
// still unanswered after d is re-sent to the same shard and the first
// answer wins, cutting the tail latency a single slow replica inflicts
// on every search. The delay adapts per shard to the observed p95
// identify latency once enough history accumulates (WithMetrics enables
// that); exactly one attempt's answer is used, so results are identical
// to the unhedged path. Requires a sharded deployment.
func WithHedging(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("fpis: WithHedging needs a positive delay, got %v", d)
		}
		c.HedgeDelay = d
		return nil
	}
}

// WithMetrics attaches an observability registry: the service records
// per-operation latency histograms and error-class counters into it
// (fpis_op_latency_ns and fpis_op_errors_total, labeled by op and
// backend kind), and the layers underneath — shard router, gallery
// stores, write-ahead logs, wire clients — register their own families
// there. Applies to every deployment shape, New and Dial alike. The
// same registry may back several services; families are shared.
// Metric recording is lock-free atomics on resolved handles, so the
// zero-allocation hot paths stay zero-allocation.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *config) error {
		if reg == nil {
			return errors.New("fpis: WithMetrics needs a non-nil registry")
		}
		c.Metrics = reg
		return nil
	}
}

// WithHooks attaches a lifecycle-hook bus: registered callbacks run
// before and after every facade operation (and on errors) with the op
// name, backend kind, duration, and error class — the seam for custom
// logging, tracing, or caching without the service knowing. Applies
// to every deployment shape. Hooks run synchronously on the calling
// goroutine and must not block.
func WithHooks(h *obs.Hooks) Option {
	return func(c *config) error {
		if h == nil {
			return errors.New("fpis: WithHooks needs a non-nil bus")
		}
		c.hooks = h
		return nil
	}
}

// WithFailClosed makes sharded identification refuse to serve while
// any shard is degraded or failing, instead of returning reduced
// coverage flagged Partial — the integrity-first posture. Requires a
// sharded deployment.
func WithFailClosed() Option {
	return func(c *config) error {
		c.Policy = shard.FailClosed
		return nil
	}
}

func buildConfig(opts []Option) (config, error) {
	var c config
	for _, o := range opts {
		if err := o(&c); err != nil {
			return config{}, err
		}
	}
	return c, nil
}

// checkNewConfig rejects what topology.Config.Validate (applied by
// Build) cannot see: an option given explicitly, even with a value
// that reads as "unset" there, on a deployment it does not apply to.
func checkNewConfig(c config) error {
	switch {
	case c.setCompactEvery && c.WALDir == "":
		return errors.New("fpis: WithWALCompactEvery requires WithWAL")
	case c.setShardTimeout && c.LocalShards == 0 && len(c.Shards) == 0:
		return errors.New("fpis: WithShardTimeout requires WithLocalShards or WithShards")
	case len(c.Shards) == 0 && (c.setRequestTimeout || c.setDialTimeout || c.setPoolSize || c.setRetry):
		return errors.New("fpis: WithRequestTimeout/WithDialTimeout/WithPoolSize/WithRetry apply to remote connections only")
	}
	return nil
}

// checkDialConfig rejects options meaningless for a single remote
// connection.
func checkDialConfig(c config) error {
	if c.Index {
		return errors.New("fpis: WithIndex belongs on the serving process, not a Dial client")
	}
	if c.LocalShards > 0 || len(c.Shards) > 0 {
		return errors.New("fpis: WithLocalShards/WithShards do not apply to Dial; use New")
	}
	if c.setShardTimeout {
		return errors.New("fpis: WithShardTimeout does not apply to Dial")
	}
	if c.WALDir != "" || c.setCompactEvery {
		return errors.New("fpis: WithWAL applies to in-process galleries; run matchd with -wal-dir instead")
	}
	if c.Policy == shard.FailClosed {
		return errors.New("fpis: WithFailClosed does not apply to Dial")
	}
	if c.setParallelism {
		return errors.New("fpis: WithParallelism is a serving-side knob; it does not apply to Dial")
	}
	if c.HedgeDelay != 0 {
		return errors.New("fpis: WithHedging requires a sharded deployment; a Dial client has no scatter to hedge")
	}
	if c.Replicas != nil {
		return errors.New("fpis: WithReplicas requires WithShards; Dial connects to a single endpoint")
	}
	return nil
}
