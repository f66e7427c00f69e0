// Package replica adds per-shard read replication: a Set groups one
// primary and N read replicas behind the shard.Backend interface, so a
// ring slot that used to be a single machine becomes a replica group
// without the router changing shape. Writes (EnrollBatch, Remove) go
// to the primary alone and keep the existing WAL ack
// discipline; reads (Verify, Identify) balance across healthy members
// and fail over inside the set, so killing one replica mid-identify
// loses no reads. A replica catches up from the primary over the wire
// — snapshot transfer plus WAL tail streaming (the Follower) — and its
// staleness is observable as an LSN-lag gauge.
package replica

import (
	"context"
	"fmt"
	"sync/atomic"

	"fpinterop/internal/gallery"
	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/obs"
	"fpinterop/internal/shard"
)

// DefaultFailureThreshold sidelines a member after this many
// consecutive read failures, mirroring the shard router's health
// machinery.
const DefaultFailureThreshold = 3

// SetOptions configures a replica set.
type SetOptions struct {
	// FailureThreshold is how many consecutive failed reads sideline a
	// member (readmitted on its next success, typically a health
	// probe). 0 means DefaultFailureThreshold.
	FailureThreshold int
	// Metrics, when non-nil, registers the set's families there,
	// labeled by set and member name.
	Metrics *obs.Registry
}

// member is one copy of the shard plus its health state — the same
// consecutive-failure tracker the router keeps per shard: crossing the
// threshold degrades the member, any answer readmits it.
type member struct {
	backend shard.Backend
	health  shard.Health
	// inflight counts identify/verify attempts currently on this
	// member. The balancer prefers the least-loaded member, which is
	// also what steers a hedge away from the member a stalled first
	// attempt is pinning.
	inflight atomic.Int64

	reads    *obs.Counter
	failures *obs.Counter
	degGauge *obs.Gauge
}

// Set is a replica group serving one ring slot. Member 0 is the
// primary; the rest are read replicas.
type Set struct {
	// The primary, embedded: EnrollBatch and Remove are its own
	// methods, so its WAL ack discipline is the set's. The reads are
	// overridden below: Verify and IdentifyDetailed balance across
	// members, Len probes them all.
	shard.Backend
	name    string
	members []*member
	// cursor breaks least-loaded ties round-robin so idle members
	// share the read load instead of member 0 absorbing it all.
	cursor    atomic.Uint64
	failovers *obs.Counter
}

// NewSet groups a primary and its read replicas under one slot name.
// The name is what the ring hashes — pass the primary's name so
// attaching replicas to an existing deployment moves no keys.
func NewSet(name string, primary shard.Backend, replicas []shard.Backend, opt SetOptions) *Set {
	if name == "" {
		name = primary.Name()
	}
	threshold := opt.FailureThreshold
	if threshold <= 0 {
		threshold = DefaultFailureThreshold
	}
	s := &Set{Backend: primary, name: name}
	backends := append([]shard.Backend{primary}, replicas...)
	reg := opt.Metrics
	if reg == nil {
		// Metric handles are hot-path atomics with no nil receiver
		// path; a private registry keeps them real and unexported.
		reg = obs.NewRegistry()
	}
	reads := reg.CounterVec("replica_reads_total",
		"Reads served, by set and member.", "set", "member")
	fails := reg.CounterVec("replica_read_failures_total",
		"Failed reads, by set and member.", "set", "member")
	deg := reg.GaugeVec("replica_member_degraded",
		"1 when the member is sidelined after consecutive read failures.", "set", "member")
	s.failovers = reg.CounterVec("replica_read_failovers_total",
		"Reads answered by a different member after the first choice failed.", "set").With(name)
	for _, b := range backends {
		m := &member{
			backend:  b,
			health:   shard.Health{Threshold: int32(threshold)},
			reads:    reads.With(name, b.Name()),
			failures: fails.With(name, b.Name()),
			degGauge: deg.With(name, b.Name()),
		}
		s.members = append(s.members, m)
	}
	return s
}

// Name identifies the slot on the ring.
func (s *Set) Name() string { return s.name }

// record folds one read outcome into the member's health and the
// set's per-member metrics.
func (s *Set) record(ctx context.Context, m *member, err error) {
	switch m.health.Record(ctx, err) {
	case shard.HealthFailed:
		m.failures.Inc()
	case shard.HealthDegraded:
		m.failures.Inc()
		m.degGauge.Set(1)
	case shard.HealthReadmitted:
		m.degGauge.Set(0)
	}
}

// ctxErr reports whether err is the context's own error — a caller
// deadline or cancellation that says nothing about member health.
func ctxErr(ctx context.Context, err error) bool {
	return ctx.Err() != nil && err != nil
}

// pick chooses a member for one read attempt: healthy members first,
// then lowest in-flight count, round-robin among ties; members listed
// in tried (and the avoid index) are excluded. Returns -1 when every
// member is excluded. With every member degraded, degraded members
// become eligible again — someone has to answer, and a success is the
// readmit signal.
func (s *Set) pick(avoid int, tried []bool) int {
	best, bestLoad := -1, int64(1<<62)
	n := len(s.members)
	start := int(s.cursor.Add(1) % uint64(n))
	degradedToo := s.allDegraded()
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if (tried != nil && tried[i]) || i == avoid {
			continue
		}
		m := s.members[i]
		if m.health.Degraded() && !degradedToo {
			continue
		}
		if load := m.inflight.Load(); load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best == -1 && avoid >= 0 && (tried == nil || !tried[avoid]) {
		// avoid was the only candidate left: serving from it beats
		// refusing the read.
		return avoid
	}
	return best
}

func (s *Set) allDegraded() bool {
	for _, m := range s.members {
		if !m.health.Degraded() {
			return false
		}
	}
	return true
}

// read runs one balanced read with in-set failover: each failed member
// is marked and the next one tried, so a member dying mid-call costs a
// retry, not the read. avoid steers the first try away from a member
// (hedging); picked, when non-nil and buffered, receives the first
// member index chosen.
func (s *Set) read(ctx context.Context, avoid int, picked chan<- int, call func(shard.Backend) error) error {
	tried := make([]bool, len(s.members))
	var lastErr error
	for attempt := 0; attempt < len(s.members); attempt++ {
		i := s.pick(avoid, tried)
		if i < 0 {
			break
		}
		tried[i] = true
		m := s.members[i]
		if picked != nil {
			select {
			case picked <- i:
			default:
			}
			picked = nil
		}
		m.inflight.Add(1)
		m.reads.Inc()
		err := call(m.backend)
		m.inflight.Add(-1)
		if ctxErr(ctx, err) {
			// The caller's deadline fired; no member can answer faster.
			return err
		}
		s.record(ctx, m, err)
		if err == nil {
			return nil
		}
		lastErr = err
		if s.failovers != nil && attempt == 0 {
			s.failovers.Inc()
		}
		// After the first failure the placement constraint yields to
		// availability: any member beats no answer.
		avoid = -1
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("replica: set %s has no eligible member", s.name)
	}
	return lastErr
}

// Verify runs on a balanced healthy member, failing over inside the
// set.
func (s *Set) Verify(ctx context.Context, id string, probe *minutiae.Template) (match.Result, error) {
	var res match.Result
	err := s.read(ctx, -1, nil, func(b shard.Backend) error {
		var cerr error
		res, cerr = b.Verify(ctx, id, probe)
		return cerr
	})
	return res, err
}

// IdentifyDetailed runs on a balanced healthy member, failing over
// inside the set. With members caught up, the answer is bit-identical
// no matter which member serves it — every member holds the same
// entries and the matcher is deterministic.
func (s *Set) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	return s.IdentifyDetailedAvoiding(ctx, probe, k, -1, nil)
}

// IdentifyDetailedAvoiding implements shard.ReplicaReader: the router
// threads the member its first attempt landed on into avoid so the
// hedge lands elsewhere, and learns this attempt's landing member from
// picked.
func (s *Set) IdentifyDetailedAvoiding(ctx context.Context, probe *minutiae.Template, k int, avoid int, picked chan<- int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	var (
		cands []gallery.Candidate
		stats gallery.IdentifyStats
	)
	err := s.read(ctx, avoid, picked, func(b shard.Backend) error {
		var cerr error
		cands, stats, cerr = b.IdentifyDetailed(ctx, probe, k)
		return cerr
	})
	if err != nil {
		return nil, gallery.IdentifyStats{}, err
	}
	return cands, stats, nil
}

// Len probes every member — it is the router's health check, so
// probing all members is what readmits a recovered replica — and
// reports the primary's count, falling back to the first healthy
// member when the primary is unreachable (reads can outlive the
// primary; writes cannot).
func (s *Set) Len(ctx context.Context) (int, error) {
	count, err := -1, error(nil)
	for i, m := range s.members {
		n, lerr := m.backend.Len(ctx)
		if ctxErr(ctx, lerr) {
			return 0, lerr
		}
		s.record(ctx, m, lerr)
		if lerr == nil && count < 0 {
			count = n
		}
		if i == 0 {
			err = lerr
		}
	}
	if count >= 0 {
		return count, nil
	}
	return 0, err
}
