package fpis

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"fpinterop/internal/gallery"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/replica"
	"fpinterop/internal/shard"
	"fpinterop/internal/wal"
)

// shardedService serves the facade from a consistent-hash router over
// local or remote shards.
type shardedService struct {
	router *shard.Router
	// indexed records whether every (local) shard carries a retrieval
	// index; remote shards own their index state, so a remote-sharded
	// service reports false.
	indexed bool
	// closers are the remote connections the constructor dialed; Close
	// owns their lifecycle.
	closers []io.Closer
	// walStores are the per-shard durable stores when the service was
	// built with WithWAL (local shards only); Close owns them, and Stats
	// aggregates their recovery and log state.
	walStores []*wal.Store
}

func routerOptions(cfg config) shard.Options {
	opt := shard.Options{ShardTimeout: cfg.shardTimeout, Registry: cfg.metrics, HedgeDelay: cfg.hedgeDelay}
	if cfg.setParallelism && cfg.parallelism > 0 {
		opt.Workers = cfg.parallelism
	}
	if cfg.failClosed {
		opt.Policy = shard.FailClosed
	}
	return opt
}

func newLocalSharded(cfg config) (Service, error) {
	backends := make([]shard.Backend, cfg.localShards)
	var walStores []*wal.Store
	closeWALs := func() {
		for _, ws := range walStores {
			ws.Close()
		}
	}
	for i := range backends {
		name := fmt.Sprintf("shard-%d", i)
		store := gallery.New(nil)
		if cfg.setParallelism {
			store.SetParallelism(cfg.parallelism)
		}
		if cfg.index {
			// Enabled before recovery so each shard's WAL replay builds
			// the index once in bulk.
			if err := store.EnableIndex(indexOptions(cfg)); err != nil {
				closeWALs()
				return nil, fmt.Errorf("fpis: enable index on shard %d: %w", i, err)
			}
		}
		if cfg.metrics != nil {
			store.SetMetrics(cfg.metrics, name)
		}
		if cfg.walDir != "" {
			ws, err := wal.Open(filepath.Join(cfg.walDir, name), store,
				wal.Options{CompactEvery: cfg.compactEvery, Metrics: cfg.metrics, Shard: name})
			if err != nil {
				closeWALs()
				return nil, fmt.Errorf("fpis: open WAL for shard %d: %w", i, err)
			}
			walStores = append(walStores, ws)
			backends[i] = shard.NewLocal(name, ws)
			continue
		}
		backends[i] = shard.NewLocal(name, store)
	}
	router, err := shard.New(backends, routerOptions(cfg))
	if err != nil {
		closeWALs()
		return nil, err
	}
	return &shardedService{router: router, indexed: cfg.index, walStores: walStores}, nil
}

func newRemoteSharded(ctx context.Context, cfg config) (Service, error) {
	var closers []io.Closer
	closeAll := func() {
		for _, c := range closers {
			c.Close()
		}
	}
	dialBackend := func(addr string) (shard.Backend, error) {
		cli, err := matchsvc.DialContext(ctx, addr)
		if err != nil {
			return nil, fmt.Errorf("fpis: dial shard %s: %w", addr, err)
		}
		configureClient(cli, cfg)
		closers = append(closers, cli)
		return shard.NewRemote(addr, cli), nil
	}
	backends := make([]shard.Backend, 0, len(cfg.remoteShards))
	for i, addr := range cfg.remoteShards {
		primary, err := dialBackend(addr)
		if err != nil {
			closeAll()
			return nil, err
		}
		// With replicas configured, the ring slot becomes a replica set:
		// still named by the primary's address so attaching replicas to
		// a running deployment moves no keys.
		if cfg.remoteReplicas != nil && len(cfg.remoteReplicas[i]) > 0 {
			members := make([]shard.Backend, 0, len(cfg.remoteReplicas[i]))
			for _, raddr := range cfg.remoteReplicas[i] {
				rep, err := dialBackend(raddr)
				if err != nil {
					closeAll()
					return nil, err
				}
				members = append(members, rep)
			}
			backends = append(backends, replica.NewSet(addr, primary, members,
				replica.SetOptions{Metrics: cfg.metrics}))
			continue
		}
		backends = append(backends, primary)
	}
	router, err := shard.New(backends, routerOptions(cfg))
	if err != nil {
		closeAll()
		return nil, err
	}
	return &shardedService{router: router, closers: closers}, nil
}

func (s *shardedService) Enroll(ctx context.Context, id, deviceID string, tpl *Template) error {
	return s.router.Enroll(ctx, id, deviceID, tpl)
}

func (s *shardedService) EnrollBatch(ctx context.Context, items []Enrollment) error {
	return s.router.EnrollBatch(ctx, items)
}

func (s *shardedService) Remove(ctx context.Context, id string) error {
	return s.router.Remove(ctx, id)
}

func (s *shardedService) Verify(ctx context.Context, id string, probe *Template) (MatchResult, error) {
	return s.router.Verify(ctx, id, probe)
}

func (s *shardedService) Identify(ctx context.Context, probe *Template, k int) ([]Candidate, error) {
	out, _, err := s.IdentifyDetailed(ctx, probe, k)
	return out, err
}

func (s *shardedService) IdentifyDetailed(ctx context.Context, probe *Template, k int) ([]Candidate, IdentifyStats, error) {
	cands, st, err := s.router.IdentifyDetailed(ctx, probe, k)
	if err != nil {
		return nil, IdentifyStats{}, err
	}
	return cands, foldShardStats(st), nil
}

// foldShardStats lifts scatter-gather statistics into the facade
// shape.
func foldShardStats(st shard.IdentifyStats) IdentifyStats {
	return IdentifyStats{
		GallerySize:   st.GallerySize,
		Shortlist:     st.Shortlist,
		Scanned:       st.Scanned,
		Indexed:       st.IndexedShards > 0 && st.FallbackShards == 0,
		ShardsQueried: st.ShardsQueried,
		ShardsSkipped: st.ShardsSkipped,
		ShardsFailed:  st.ShardsFailed,
		Partial:       st.Partial,
	}
}

func (s *shardedService) Stats(ctx context.Context) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	st := Stats{
		Enrollments: s.router.Len(ctx),
		Shards:      len(s.router.Backends()),
		Indexed:     s.indexed,
	}
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	for _, i := range s.router.Degraded() {
		st.DegradedShards = append(st.DegradedShards, s.router.Backends()[i].Name())
	}
	if len(s.walStores) > 0 {
		ws, err := foldWALStats(s.walStores)
		if err != nil {
			return Stats{}, err
		}
		st.WAL = ws
	}
	return st, nil
}

func (s *shardedService) Close() error {
	var errs []error
	for _, c := range s.closers {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, ws := range s.walStores {
		if err := ws.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
