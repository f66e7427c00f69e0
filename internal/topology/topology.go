// Package topology builds a deployment's serving stack from a plain
// description: one in-process store, N in-process shards behind a
// router, or a scatter-gather front over remote matchd shards (each
// optionally a replica set) — with the index, the write-ahead logs and
// the metrics registry wired the same way whoever asks. fpis.New and
// cmd/matchd both construct through it, so a deployment shape exists in
// one place and the facade and the daemon cannot drift apart.
package topology

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/index"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/obs"
	"fpinterop/internal/replica"
	"fpinterop/internal/shard"
	"fpinterop/internal/wal"
)

// Dial connects one wire client under ctx and registers its metrics.
func Dial(ctx context.Context, addr string, opts matchsvc.ClientOptions, reg *obs.Registry) (*matchsvc.Client, error) {
	cli, err := matchsvc.Dial(ctx, addr, opts)
	if err != nil {
		return nil, err
	}
	cli.SetMetrics(reg)
	return cli, nil
}

// Config describes one deployment. The zero value is a single
// in-memory store.
type Config struct {
	// Index enables the triplet retrieval index on every in-process
	// store; IndexFanout is its shortlist size (0 = default).
	Index       bool
	IndexFanout int
	// LocalShards > 0 partitions the gallery across that many
	// in-process stores; Shards lists remote matchd addresses to
	// scatter-gather over instead, Replicas the read replicas of each
	// Shards slot (nil, or one possibly-empty list per slot). With
	// neither, the deployment is one store.
	LocalShards int
	Shards      []string
	Replicas    [][]string
	// WALDir makes every in-process store durable through a write-ahead
	// log there (one subdirectory per local shard); CompactEvery folds
	// a log into a snapshot after that many mutations (0 = never).
	WALDir       string
	CompactEvery int
	// ShardTimeout, HedgeDelay and Policy tune the router (see
	// shard.Options).
	ShardTimeout time.Duration
	HedgeDelay   time.Duration
	Policy       shard.Policy
	// Client configures the connections to Shards and Replicas.
	Client matchsvc.ClientOptions
	// Metrics, when non-nil, receives every layer's families.
	Metrics *obs.Registry
}

// Validate is the one list of value ranges and of which fields go
// together; Build applies it, so fpis.New and cmd/matchd answer to the
// same rules. A zero value is the no-op it reads as wherever it does
// not apply, so a field needs checking only when it is set.
func (c Config) Validate() error {
	if err := c.Client.Validate(); err != nil {
		return fmt.Errorf("topology: Client: %w", err)
	}
	front := len(c.Shards) > 0
	sharded := front || c.LocalShards > 0
	client := c.Client
	if client.PoolSize == 1 {
		client.PoolSize = 0 // one connection is the default, spelled out
	}
	switch {
	case c.LocalShards < 0 || c.IndexFanout < 0 || c.CompactEvery < 0 || c.ShardTimeout < 0 || c.HedgeDelay < 0:
		return errors.New("topology: LocalShards, IndexFanout, CompactEvery, ShardTimeout and HedgeDelay must be >= 0")
	case front && c.LocalShards > 0:
		return errors.New("topology: LocalShards and Shards are mutually exclusive")
	case front && (c.Index || c.WALDir != ""):
		return errors.New("topology: Index and WALDir belong on the shard processes, not on a Shards front")
	case c.IndexFanout > 0 && !c.Index:
		return errors.New("topology: IndexFanout requires Index")
	case c.CompactEvery > 0 && c.WALDir == "":
		return errors.New("topology: CompactEvery requires WALDir")
	case !sharded && (c.ShardTimeout != 0 || c.HedgeDelay != 0 || c.Policy != shard.SkipDegraded):
		return errors.New("topology: ShardTimeout, HedgeDelay and Policy tune the router; they require LocalShards or Shards")
	case !front && client != (matchsvc.ClientOptions{}):
		return errors.New("topology: Client (pool size, retry, keepalive, timeouts) configures the connections to Shards; it requires Shards")
	case c.Replicas != nil && len(c.Replicas) != len(c.Shards):
		return fmt.Errorf("topology: Replicas lists %d slots, Shards has %d", len(c.Replicas), len(c.Shards))
	}
	return nil
}

// Topology is a built deployment.
type Topology struct {
	// Backend is the gallery contract the deployment serves: the store
	// behind its Local adapter (shipping its log when it has one), or
	// the router itself.
	Backend matchsvc.Backend
	// Router is Backend when the deployment is sharded; nil for a
	// single store.
	Router *shard.Router
	// Stores are the in-process galleries — one, one per local shard,
	// or none on a remote front — and WALs the durable stores wrapping
	// them when Config.WALDir was set.
	Stores []*gallery.Store
	WALs   []*wal.Store

	indexed bool
	clients []*matchsvc.Client
}

// durableLocal is a single WAL-backed store as served: the Local
// adapter plus the log-shipping capability read replicas bootstrap
// from.
type durableLocal struct {
	*shard.Local
	matchsvc.SyncSource
}

// Build constructs the deployment cfg describes. ctx bounds the work
// (dialing remote shards); on failure everything already opened is
// closed again.
func Build(ctx context.Context, cfg Config) (t *Topology, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t = &Topology{indexed: cfg.Index}
	defer func() {
		if err != nil {
			t.Close()
			t = nil
		}
	}()
	var backends []shard.Backend
	switch {
	case len(cfg.Shards) > 0:
		cfg.Client = cfg.frontClient()
		for i, addr := range cfg.Shards {
			b, err := t.dial(ctx, cfg, addr)
			if err != nil {
				return t, err
			}
			// With replicas the ring slot becomes a replica set, still
			// named by the primary's address so attaching replicas to a
			// running deployment moves no keys.
			if cfg.Replicas != nil && len(cfg.Replicas[i]) > 0 {
				members := make([]shard.Backend, len(cfg.Replicas[i]))
				for j, raddr := range cfg.Replicas[i] {
					if members[j], err = t.dial(ctx, cfg, raddr); err != nil {
						return t, fmt.Errorf("replica of %s: %w", addr, err)
					}
				}
				b = replica.NewSet(addr, b, members, replica.SetOptions{Metrics: cfg.Metrics})
			}
			backends = append(backends, b)
		}
	case cfg.LocalShards > 0:
		for i := 0; i < cfg.LocalShards; i++ {
			name := fmt.Sprintf("shard-%d", i)
			b, err := t.open(cfg, name, filepath.Join(cfg.WALDir, name))
			if err != nil {
				return t, err
			}
			backends = append(backends, b)
		}
	default:
		local, err := t.open(cfg, "local", cfg.WALDir)
		if err != nil {
			return t, err
		}
		t.Backend = local
		if len(t.WALs) > 0 {
			t.Backend = durableLocal{local, t.WALs[0]}
		}
		return t, nil
	}
	if t.Router, err = shard.New(backends, shard.Options{
		ShardTimeout: cfg.ShardTimeout,
		HedgeDelay:   cfg.HedgeDelay,
		Policy:       cfg.Policy,
		Registry:     cfg.Metrics,
	}); err != nil {
		return t, err
	}
	t.Backend = t.Router
	return t, nil
}

// The bounds a front fills in where its Client leaves them 0, so that
// a hung shard cannot wedge it and abandoned scatter calls unwind: a
// deadline-free round trip gets twice ShardTimeout (headroom over the
// router's own deadline), or RequestTimeout without one, and a
// connection attempt RedialTimeout. matchd -replica-of dials its
// primary with the same two.
const (
	RequestTimeout = 2 * time.Minute
	RedialTimeout  = 5 * time.Second
)

// frontClient is c.Client with a front's bounds filled in.
func (c Config) frontClient() matchsvc.ClientOptions {
	o := c.Client
	if o.RequestTimeout == 0 {
		if o.RequestTimeout = 2 * c.ShardTimeout; o.RequestTimeout <= 0 {
			o.RequestTimeout = RequestTimeout
		}
	}
	if o.RedialTimeout == 0 {
		o.RedialTimeout = RedialTimeout
	}
	return o
}

// dial connects one remote shard (or replica) and keeps the client for
// Close.
func (t *Topology) dial(ctx context.Context, cfg Config, addr string) (shard.Backend, error) {
	cli, err := Dial(ctx, addr, cfg.Client, cfg.Metrics)
	if err != nil {
		return nil, fmt.Errorf("dial shard %s: %w", addr, err)
	}
	t.clients = append(t.clients, cli)
	return shard.NewRemote(addr, cli), nil
}

// open builds one in-process store named name, durable under walDir
// when cfg asks for a WAL.
func (t *Topology) open(cfg Config, name, walDir string) (*shard.Local, error) {
	store := gallery.New(nil)
	if cfg.Index {
		// Enabled before recovery so the WAL replay's bulk load builds
		// the index once instead of record by record.
		if err := store.EnableIndex(gallery.IndexOptions{Index: index.Options{Fanout: cfg.IndexFanout}}); err != nil {
			return nil, fmt.Errorf("enable index on %s: %w", name, err)
		}
	}
	if cfg.Metrics != nil {
		store.SetMetrics(cfg.Metrics, name)
	}
	t.Stores = append(t.Stores, store)
	if cfg.WALDir == "" {
		return shard.NewLocal(name, store), nil
	}
	ws, err := wal.Open(walDir, store, wal.Options{CompactEvery: cfg.CompactEvery, Metrics: cfg.Metrics, Shard: name})
	if err != nil {
		return nil, fmt.Errorf("open WAL %s: %w", walDir, err)
	}
	t.WALs = append(t.WALs, ws)
	return shard.NewLocal(name, ws), nil
}

// Stats assembles the service summary OpStats, /admin/stats and
// fpis.Service.Stats all report: the builder knows the topology, index
// state and WALs in a way nothing can infer from the Backend contract.
func (t *Topology) Stats(ctx context.Context) (matchsvc.ServiceStats, error) {
	st := matchsvc.ServiceStats{Shards: 1, Indexed: t.indexed}
	if t.Router != nil {
		backends := t.Router.Backends()
		st.Shards = len(backends)
		st.Enrollments, _ = t.Router.Len(ctx) // its error is ctx.Err(), checked below
		for _, i := range t.Router.Degraded() {
			st.DegradedShards = append(st.DegradedShards, backends[i].Name())
		}
	} else {
		st.Enrollments = t.Stores[0].Len()
	}
	if err := ctx.Err(); err != nil {
		return matchsvc.ServiceStats{}, err
	}
	if len(t.WALs) > 0 {
		st.WAL = &matchsvc.WALServiceStats{}
	}
	for _, ws := range t.WALs {
		rec := ws.Recovery()
		st.WAL.SnapshotEntries += rec.SnapshotEntries
		st.WAL.Replayed += rec.Replayed
		st.WAL.TruncatedBytes += rec.TruncatedBytes
		if rec.TornTail {
			st.WAL.TornTails++
		}
		size, err := ws.LogSize()
		if err != nil {
			return matchsvc.ServiceStats{}, err
		}
		st.WAL.LogBytes += size
	}
	return st, nil
}

// Close releases what Build acquired: remote connections, then the
// write-ahead logs.
func (t *Topology) Close() error {
	var errs []error
	for _, c := range t.clients {
		errs = append(errs, c.Close())
	}
	for _, ws := range t.WALs {
		errs = append(errs, ws.Close())
	}
	return errors.Join(errs...)
}
