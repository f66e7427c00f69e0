package fpis

import (
	"context"
	"errors"
	"time"

	"fpinterop/internal/matchsvc"
	"fpinterop/internal/obs"
	"fpinterop/internal/shard"
	"fpinterop/internal/topology"
)

// service is the one Service implementation: the facade over whatever
// speaks the gallery contract — a store behind its adapter, a shard
// router, a wire client — plus the two things the contract does not
// carry, a stats source and a closer. Deployment shapes differ in how
// the constructor fills these fields, not in which type serves them.
type service struct {
	backend matchsvc.Backend
	stats   func(context.Context) (Stats, error)
	close   func() error
	// obs is nil unless WithMetrics was given; every method pays one
	// nil check for it.
	obs *observer
}

// newService assembles the facade; label is the deployment-shape
// metric label ("local", "sharded", "remote") and reg, when non-nil,
// receives the facade's metrics.
func newService(label string, reg *obs.Registry, b matchsvc.Backend,
	stats func(context.Context) (Stats, error), close func() error) *service {
	return &service{backend: b, stats: stats, close: close, obs: newObserver(label, reg)}
}

// topologyService is the facade over an in-process deployment.
func topologyService(t *topology.Topology, reg *obs.Registry) *service {
	label := "local"
	if t.Router != nil {
		label = "sharded"
	}
	return newService(label, reg, t.Backend, t.Stats, t.Close)
}

// Enroll is a batch of one below the facade: the contract has one
// write verb.
func (s *service) Enroll(ctx context.Context, id, deviceID string, tpl *Template) error {
	t0 := s.obs.begin()
	err := s.backend.EnrollBatch(ctx, []Enrollment{{ID: id, DeviceID: deviceID, Template: tpl}})
	s.obs.end(opEnroll, t0, err)
	return err
}

func (s *service) EnrollBatch(ctx context.Context, items []Enrollment) error {
	t0 := s.obs.begin()
	err := s.backend.EnrollBatch(ctx, items)
	s.obs.end(opEnrollBatch, t0, err)
	return err
}

func (s *service) Remove(ctx context.Context, id string) error {
	t0 := s.obs.begin()
	err := s.backend.Remove(ctx, id)
	s.obs.end(opRemove, t0, err)
	return err
}

func (s *service) Verify(ctx context.Context, id string, probe *Template) (MatchResult, error) {
	t0 := s.obs.begin()
	res, err := s.backend.Verify(ctx, id, probe)
	s.obs.end(opVerify, t0, err)
	return res, err
}

func (s *service) Identify(ctx context.Context, probe *Template, k int) ([]Candidate, error) {
	t0 := s.obs.begin()
	out, _, err := s.identify(ctx, probe, k)
	s.obs.end(opIdentify, t0, err)
	return out, err
}

func (s *service) IdentifyDetailed(ctx context.Context, probe *Template, k int) ([]Candidate, IdentifyStats, error) {
	t0 := s.obs.begin()
	out, st, err := s.identify(ctx, probe, k)
	s.obs.end(opIdentifyDetailed, t0, err)
	return out, st, err
}

func (s *service) identify(ctx context.Context, probe *Template, k int) ([]Candidate, IdentifyStats, error) {
	if k < 0 {
		// The facade's k <= 0 contract, applied before k can cross a
		// wire unsigned.
		k = 0
	}
	return s.backend.IdentifyDetailed(ctx, probe, k)
}

func (s *service) Stats(ctx context.Context) (Stats, error) {
	t0 := s.obs.begin()
	st, err := s.stats(ctx)
	s.obs.end(opStats, t0, err)
	return st, err
}

func (s *service) Close() error {
	t0 := s.obs.begin()
	err := s.close()
	s.obs.end(opClose, t0, err)
	return err
}

// Facade operation indices: one latency histogram handle per op,
// resolved once at construction so the request path never touches the
// registry.
const (
	opEnroll = iota
	opEnrollBatch
	opRemove
	opVerify
	opIdentify
	opIdentifyDetailed
	opStats
	opClose
	opCount
)

var opNames = [opCount]string{
	"enroll", "enroll_batch", "remove", "verify",
	"identify", "identify_detailed", "stats", "close",
}

// observer is a service's instrumentation: per-op latency histograms
// and error-class counters. Its methods are nil-safe, so an unobserved
// service carries a nil pointer and no wrapper at all.
type observer struct {
	backend string
	lat     [opCount]*obs.Histogram
	errs    *obs.CounterVec
}

// newObserver returns nil without a registry.
func newObserver(backend string, reg *obs.Registry) *observer {
	if reg == nil {
		return nil
	}
	o := &observer{backend: backend, errs: reg.CounterVec("fpis_op_errors_total",
		"Facade operation failures by error class.", "op", "backend", "class")}
	latVec := reg.HistogramVec("fpis_op_latency_ns",
		"Facade operation latency in nanoseconds.",
		obs.LatencyBuckets(), "op", "backend")
	for i := range o.lat {
		o.lat[i] = latVec.With(opNames[i], backend)
	}
	return o
}

// errClass maps an operation error onto a low-cardinality label
// value. Sentinels are matched with errors.Is, so wrapped and
// remote-mapped failures classify identically to local ones.
func errClass(err error) string {
	switch {
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrNotFound):
		return "not_found"
	case errors.Is(err, ErrDuplicate):
		return "duplicate"
	case errors.Is(err, shard.ErrDegraded) || errors.Is(err, shard.ErrShardTimeout):
		return "degraded"
	case errors.Is(err, matchsvc.ErrRemote):
		return "remote"
	default:
		return "other"
	}
}

// begin starts the clock.
//
//fpvet:hotpath rides every facade operation, including zero-alloc identify
func (o *observer) begin() (t0 time.Time) {
	if o == nil {
		return t0
	}
	return time.Now()
}

// end records one completed operation: latency always, the error
// counter on failure. The success path is alloc-free — time.Since and
// atomic observes.
//
//fpvet:hotpath rides every facade operation, including zero-alloc identify
func (o *observer) end(op int, t0 time.Time, err error) {
	if o == nil {
		return
	}
	o.lat[op].ObserveSince(t0)
	if err != nil {
		o.errs.With(opNames[op], o.backend, errClass(err)).Inc()
	}
}
