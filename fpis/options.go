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

// Option configures Service construction (New and Dial) by setting one
// field of the deployment description, to what the matching matchd flag
// would. A negative count or duration is rejected, and so is a non-zero
// value on a shape it does not apply to; a zero there is a no-op.
type Option func(*topology.Config) error

// WithIndex enables the minutia-triplet retrieval index (matchd -index),
// so 1:N identification searches a candidate shortlist instead of the
// whole gallery. fanout is the shortlist size (-index-fanout; 0 for the
// library default). Applies to local stores — including each shard
// under WithLocalShards — not to remote connections, where the index
// lives in the serving process.
func WithIndex(fanout int) Option {
	return set(func(c *topology.Config) { c.Index, c.IndexFanout = true, fanout })
}

// WithWAL makes every mutation durable through a per-shard write-ahead
// log rooted at dir (matchd -wal-dir): an acknowledged Enroll or Remove
// survives a crash of the process, and construction replays the log
// (after restoring the latest compaction snapshot) before the service
// accepts its first request. Each shard of a WithLocalShards deployment
// logs into its own subdirectory of dir, so growing the shard count
// later reuses nothing stale. Applies to in-process galleries — a
// single local store or WithLocalShards — not to remote connections,
// where durability belongs to the serving process.
func WithWAL(dir string) Option {
	return func(c *topology.Config) error {
		if dir == "" {
			return errors.New("fpis: WithWAL needs a directory")
		}
		c.WALDir = dir
		return nil
	}
}

// WithWALCompactEvery (matchd -compact-every) compacts each shard's
// write-ahead log into a snapshot after every n logged mutations,
// bounding replay work on the next startup. 0 disables automatic
// compaction (the log grows until the service is rebuilt). Needs WithWAL.
func WithWALCompactEvery(n int) Option {
	return set(func(c *topology.Config) { c.CompactEvery = n })
}

// WithLocalShards (matchd -local-shards) partitions the gallery across n
// in-process stores behind a consistent-hash router. Excludes WithShards.
func WithLocalShards(n int) Option {
	return func(c *topology.Config) error {
		if n <= 0 {
			return fmt.Errorf("fpis: WithLocalShards needs n > 0, got %d", n)
		}
		c.LocalShards = n
		return nil
	}
}

// WithShards scatter-gathers over remote matchd processes at the given
// addresses (matchd -shards), routing enrollments by subject ID.
// Mutually exclusive with WithLocalShards and WithIndex (indexing
// belongs to the shard processes that own the data).
func WithShards(addrs ...string) Option {
	return func(c *topology.Config) error {
		if len(addrs) == 0 {
			return errors.New("fpis: WithShards needs at least one address")
		}
		c.Shards = append([]string(nil), addrs...)
		return nil
	}
}

// WithReplicas (matchd -replicas) attaches read replicas to each
// WithShards slot: the i-th argument lists the replica addresses for the
// i-th shard address (run each as matchd -replica-of <primary>). Writes
// still go only to the primary; Verify and Identify balance across the
// slot's healthy members and fail over inside the slot, and hedged
// identifies are steered to a different member than the attempt they
// race. The argument count must match WithShards exactly — an empty (or
// nil) list is valid for a slot with no replicas.
func WithReplicas(replicas ...[]string) Option {
	return set(func(c *topology.Config) {
		c.Replicas = make([][]string, len(replicas))
		for i, rs := range replicas {
			c.Replicas[i] = append([]string(nil), rs...)
		}
	})
}

// WithShardTimeout (matchd -shard-timeout) bounds each shard's share of
// an identification; a shard that misses the deadline is abandoned (and
// counts toward degradation) while the healthy shards' answers are
// merged. 0 disables the per-shard deadline. Requires a sharded shape.
func WithShardTimeout(d time.Duration) Option {
	return set(func(c *topology.Config) { c.ShardTimeout = d })
}

// WithRequestTimeout sets the fallback wire round-trip bound used when
// a call's context carries no deadline of its own. Applies to remote
// connections (Dial and WithShards). On Dial, 0 disables the fallback;
// on a WithShards front, 0 bounds each round trip at twice
// WithShardTimeout (2 minutes without one), as on a matchd -shards
// front, so a hung shard cannot wedge the front.
func WithRequestTimeout(d time.Duration) Option {
	return set(func(c *topology.Config) { c.Client.RequestTimeout = d })
}

// WithDialTimeout bounds each connection attempt — TCP connect plus
// protocol handshake — of a remote connection: the constructor's dial
// (on top of its context) and the transparent reconnects after a
// transport failure (on top of the triggering request's context).
// Applies to remote connections. 0 falls back to the request timeout
// on Dial (with neither set an attempt is bounded by its context
// alone) and is 5 seconds on a WithShards front, as on matchd's.
func WithDialTimeout(d time.Duration) Option {
	return set(func(c *topology.Config) { c.Client.RedialTimeout = d })
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

// WithPoolSize (matchd -pool-size) sets how many connections each remote
// endpoint may pool; 0 and 1 both mean one, the default. Connections are
// dialed on demand; against a multiplexed server one connection already
// carries concurrent requests, so the pool is for spreading load and
// surviving per-connection stalls. Applies to Dial and WithShards.
func WithPoolSize(n int) Option {
	return set(func(c *topology.Config) { c.Client.PoolSize = n })
}

// WithRetry enables transparent retries of idempotent remote operations
// after transport failures, with capped jittered exponential backoff
// (matchd -retry sets Attempts). Applies to remote connections (Dial
// and WithShards); retries are off by default.
func WithRetry(p RetryPolicy) Option {
	return set(func(c *topology.Config) { c.Client.Retry = p })
}

// WithKeepalive (matchd -keepalive) sets the interval at which idle
// pooled connections are pinged so a server's idle deadline never drops
// them: 0 is the 50s default, under matchd's 2-minute idle deadline, and
// d < 0 disables keepalives. Applies to Dial and WithShards.
func WithKeepalive(d time.Duration) Option {
	return set(func(c *topology.Config) { c.Client.Keepalive = d })
}

// WithHedging (matchd -hedge-delay) enables hedged identification: a
// shard's scatter leg still unanswered after d is re-sent to the same
// shard and the first answer wins, cutting the tail latency a single
// slow replica inflicts on every search. The delay adapts per shard to
// the observed p95 identify latency once enough history accumulates
// (WithMetrics enables that); exactly one attempt's answer is used, so
// results are identical to the unhedged path. 0, the default, is off;
// any other d requires a sharded deployment.
func WithHedging(d time.Duration) Option {
	return set(func(c *topology.Config) { c.HedgeDelay = d })
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
	return func(c *topology.Config) error {
		if reg == nil {
			return errors.New("fpis: WithMetrics needs a non-nil registry")
		}
		c.Metrics = reg
		return nil
	}
}

// WithFailClosed makes sharded identification refuse to serve while
// any shard is degraded or failing, instead of returning reduced
// coverage flagged Partial — the integrity-first posture. Requires a
// sharded deployment.
func WithFailClosed() Option {
	return set(func(c *topology.Config) { c.Policy = shard.FailClosed })
}

// set is an option that cannot fail.
func set(f func(*topology.Config)) Option {
	return func(c *topology.Config) error {
		f(c)
		return nil
	}
}

func buildConfig(opts []Option) (topology.Config, error) {
	var c topology.Config
	for _, o := range opts {
		if err := o(&c); err != nil {
			return topology.Config{}, err
		}
	}
	return c, nil
}
