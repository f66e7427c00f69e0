package fpis

import (
	"context"

	"fpinterop/internal/matchsvc"
)

// Dial connects to one remote matchd instance and returns a Service
// speaking the wire protocol to it. The context bounds the connection
// establishment: a pre-cancelled context fails fast without dialing.
// Per-call deadlines derive from each call's own context (with the
// WithRequestTimeout fallback when a context has no deadline).
func Dial(ctx context.Context, addr string, opts ...Option) (Service, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := checkDialConfig(cfg); err != nil {
		return nil, err
	}
	cli, err := matchsvc.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	configureClient(cli, cfg)
	return instrument(&remoteService{cli: cli}, "remote", cfg), nil
}

// configureClient applies the remote-connection options shared by Dial
// and WithShards.
func configureClient(cli *matchsvc.Client, cfg config) {
	if cfg.setRequestTimeout {
		cli.SetRequestTimeout(cfg.requestTimeout)
	}
	if cfg.setDialTimeout {
		cli.SetRedialTimeout(cfg.dialTimeout)
	}
	if cfg.setPoolSize {
		cli.SetPoolSize(cfg.poolSize)
	}
	if cfg.setRetry {
		cli.SetRetry(matchsvc.Retry{
			Attempts:  cfg.retry.Attempts,
			BaseDelay: cfg.retry.BaseDelay,
			MaxDelay:  cfg.retry.MaxDelay,
		})
	}
	if cfg.setKeepalive {
		cli.SetKeepalive(cfg.keepalive)
	}
	if cfg.metrics != nil {
		cli.SetMetrics(cfg.metrics)
	}
}

// remoteService serves the facade over one matchsvc connection. The
// wire client already returns the facade's sentinels (the response
// status byte names them), so errors pass through untouched.
type remoteService struct {
	cli *matchsvc.Client
}

func (s *remoteService) Enroll(ctx context.Context, id, deviceID string, tpl *Template) error {
	return s.cli.Enroll(ctx, id, deviceID, tpl)
}

func (s *remoteService) EnrollBatch(ctx context.Context, items []Enrollment) error {
	_, err := s.cli.EnrollBatch(ctx, items)
	return err
}

func (s *remoteService) Remove(ctx context.Context, id string) error {
	return s.cli.Remove(ctx, id)
}

func (s *remoteService) Verify(ctx context.Context, id string, probe *Template) (MatchResult, error) {
	res, err := s.cli.Verify(ctx, id, probe)
	if err != nil {
		return MatchResult{}, err
	}
	return MatchResult{Score: res.Score, Matched: res.Matched}, nil
}

func (s *remoteService) Identify(ctx context.Context, probe *Template, k int) ([]Candidate, error) {
	out, _, err := s.IdentifyDetailed(ctx, probe, k)
	return out, err
}

func (s *remoteService) IdentifyDetailed(ctx context.Context, probe *Template, k int) ([]Candidate, IdentifyStats, error) {
	if k < 0 {
		// The facade's k <= 0 contract, applied before k crosses the
		// wire unsigned.
		k = 0
	}
	cands, st, err := s.cli.IdentifyEx(ctx, probe, k)
	if err != nil {
		return nil, IdentifyStats{}, err
	}
	return cands, foldGalleryStats(st), nil
}

func (s *remoteService) Stats(ctx context.Context) (Stats, error) {
	st, err := s.cli.ServiceStats(ctx)
	if err != nil {
		return Stats{}, err
	}
	out := Stats{
		Enrollments:    st.Enrollments,
		Shards:         st.Shards,
		DegradedShards: st.DegradedShards,
		Indexed:        st.Indexed,
	}
	if st.WAL != nil {
		out.WAL = &WALStats{
			SnapshotEntries: st.WAL.SnapshotEntries,
			Replayed:        st.WAL.Replayed,
			TruncatedBytes:  st.WAL.TruncatedBytes,
			TornTails:       st.WAL.TornTails,
			LogBytes:        st.WAL.LogBytes,
		}
	}
	return out, nil
}

func (s *remoteService) Close() error { return s.cli.Close() }
