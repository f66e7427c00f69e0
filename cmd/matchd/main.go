// Command matchd runs the central fingerprint matching service: a TCP
// server owning the enrollment gallery, to which heterogeneous capture
// stations submit match/enroll/verify/identify requests — the deployment
// architecture the paper's discussion section contemplates.
//
// Usage:
//
//	matchd [-addr 127.0.0.1:7070] [-preload N] [-seed N] [-device D0]
//	       [-index] [-index-fanout N] [-idle-timeout 2m]
//	       [-local-shards N | -shards addr1,addr2,...] [-shard-timeout D]
//	       [-replicas "r0a,r0b;r1a"] [-replica-of ADDR] [-replica-sync-interval D]
//	       [-pool-size N] [-retry N] [-keepalive D] [-hedge-delay D]
//	       [-wal-dir DIR] [-compact-every N] [-metrics-addr HOST:PORT]
//
// -preload enrolls N synthetic subjects at startup so the service is
// immediately searchable (useful for demos and load tests). -index
// enables the minutia-triplet retrieval index, so identification
// searches a candidate shortlist instead of the whole gallery; each
// indexed search logs its shortlist size.
//
// Durability: -wal-dir routes every mutation through a write-ahead log
// rooted at DIR, so an acknowledged enrollment survives even a SIGKILL
// of the process; startup replays the log (after restoring the latest
// compaction snapshot) and logs what recovery found. -compact-every N
// folds the log into a snapshot after every N mutations, bounding
// replay work at the next startup; the log is also compacted on clean
// shutdown. Each shard of a -local-shards deployment logs into its own
// subdirectory of DIR. The WAL is the only persistence: without
// -wal-dir the gallery lives in memory and is gone at exit.
//
// Sharding: -local-shards N partitions the gallery across N in-process
// stores behind a consistent-hash router (each shard indexed when
// -index is set); -shards runs this instance as a scatter-gather front
// over remote matchd shards, routing enrollments by subject ID and
// fanning every identification out to all healthy shards. The two are
// mutually exclusive; a remote front leaves indexing (-index) and
// durability (-wal-dir) to the shard processes that own the data.
//
// Replication: -replica-of ADDR runs this instance as a read replica of
// a WAL-backed primary matchd at ADDR: it bootstraps from a snapshot
// transfer, then continuously streams the primary's log tail (every
// -replica-sync-interval, default 75ms), serving Verify/Identify/Has/
// Scan from local state and refusing writes. Replica staleness is the
// replica_lsn_lag gauge on /metrics. On a -shards front, -replicas
// attaches those replicas to their primaries: semicolon-separated
// groups in -shards order, each group a comma-separated address list
// ("r0a,r0b;;r2a" gives shard 0 two replicas, shard 1 none, shard 2
// one). Reads then balance across each slot's healthy members with
// in-slot failover, and hedged identifies go to a different member
// than the attempt they race.
//
// Resilience: on a -shards front, -pool-size pools N connections per
// remote shard, -retry re-sends idempotent shard calls up to N total
// attempts after transport failures (with capped jittered backoff), and
// -keepalive pings idle pooled connections so a shard's idle deadline
// never silently drops them. -hedge-delay enables hedged identification
// on any sharded deployment: a shard leg still unanswered after D is
// re-sent and the first answer wins, trimming slow-replica tail latency
// without changing results.
//
// Observability: -metrics-addr binds a second, operational listener
// serving /metrics (Prometheus text), /metrics.json, /healthz,
// /admin/stats (service summary + shard topology), and /debug/pprof/*.
// With it set, every layer records into one metrics registry: per-op
// request latency, per-shard health and scatter coverage, WAL append
// and fsync latency, and wire-level connection and frame detail. All
// logging is structured key=value lines on stderr either way.
//
// matchd is the serving side of the public identity-service API:
// consumers reach everything it hosts through fpis.Dial (one matchd)
// or fpis.New with fpis.WithShards (a fleet of them), with per-request
// deadlines and cancellation carried by context.Context.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/index"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/obs"
	"fpinterop/internal/population"
	"fpinterop/internal/replica"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
	"fpinterop/internal/shard"
	"fpinterop/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "matchd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("matchd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	preload := fs.Int("preload", 0, "enroll N synthetic subjects at startup")
	seed := fs.Uint64("seed", 2013, "seed for preloaded subjects")
	deviceID := fs.String("device", "D0", "device used for preloaded enrollments")
	useIndex := fs.Bool("index", false, "serve identification from a minutia-triplet candidate index")
	indexFanout := fs.Int("index-fanout", 0, "index shortlist size (0 = default)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "drop connections idle (or mid-frame) longer than this; 0 disables")
	localShards := fs.Int("local-shards", 0, "partition the gallery across N in-process shards")
	shardAddrs := fs.String("shards", "", "comma-separated remote matchd addresses to scatter-gather over")
	replicaAddrs := fs.String("replicas", "", "read replicas per -shards slot: semicolon-separated groups in -shards order, each a comma-separated address list")
	replicaOf := fs.String("replica-of", "", "run as a read replica of the WAL-backed primary matchd at this address")
	replicaSyncInterval := fs.Duration("replica-sync-interval", 0, "how often a -replica-of instance polls the primary's log tail (0 = 75ms default)")
	shardTimeout := fs.Duration("shard-timeout", 0, "per-shard identification deadline (0 = none)")
	poolSize := fs.Int("pool-size", 1, "connections pooled per remote shard (requires -shards)")
	retryAttempts := fs.Int("retry", 0, "total attempts for idempotent shard calls after transport failures, 0/1 = no retries (requires -shards)")
	keepalive := fs.Duration("keepalive", 0, "idle-connection keepalive interval toward remote shards; 0 = client default, negative disables (requires -shards)")
	hedgeDelay := fs.Duration("hedge-delay", 0, "re-send a shard identify leg still unanswered after this long, 0 = off (requires -local-shards or -shards)")
	walDir := fs.String("wal-dir", "", "write-ahead-log directory: mutations are durable and replayed at startup")
	compactEvery := fs.Int("compact-every", 0, "compact the WAL into a snapshot after every N mutations (0 = only on shutdown)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /healthz, /admin/stats and /debug/pprof on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexFanout < 0 {
		return fmt.Errorf("-index-fanout must be >= 0, got %d", *indexFanout)
	}
	if *indexFanout > 0 && !*useIndex {
		return fmt.Errorf("-index-fanout requires -index")
	}
	if *localShards < 0 {
		return fmt.Errorf("-local-shards must be >= 0, got %d", *localShards)
	}
	if *localShards > 0 && *shardAddrs != "" {
		return fmt.Errorf("-local-shards and -shards are mutually exclusive")
	}
	if *shardAddrs != "" && *useIndex {
		return fmt.Errorf("-index belongs on the shard processes, not the -shards front")
	}
	if *shardTimeout != 0 && *localShards == 0 && *shardAddrs == "" {
		return fmt.Errorf("-shard-timeout requires -local-shards or -shards")
	}
	if *poolSize < 1 {
		return fmt.Errorf("-pool-size must be >= 1, got %d", *poolSize)
	}
	if *retryAttempts < 0 {
		return fmt.Errorf("-retry must be >= 0, got %d", *retryAttempts)
	}
	if *shardAddrs == "" && (*poolSize != 1 || *retryAttempts != 0 || *keepalive != 0) {
		return fmt.Errorf("-pool-size/-retry/-keepalive configure the remote-shard clients; they require -shards")
	}
	if *hedgeDelay < 0 {
		return fmt.Errorf("-hedge-delay must be >= 0, got %v", *hedgeDelay)
	}
	if *hedgeDelay > 0 && *localShards == 0 && *shardAddrs == "" {
		return fmt.Errorf("-hedge-delay requires -local-shards or -shards")
	}
	if *compactEvery < 0 {
		return fmt.Errorf("-compact-every must be >= 0, got %d", *compactEvery)
	}
	if *compactEvery > 0 && *walDir == "" {
		return fmt.Errorf("-compact-every requires -wal-dir")
	}
	if *walDir != "" && *shardAddrs != "" {
		return fmt.Errorf("-wal-dir belongs on the shard processes, not the -shards front")
	}
	if *replicaOf != "" {
		switch {
		case *localShards > 0 || *shardAddrs != "":
			return fmt.Errorf("-replica-of runs a single-store replica; it excludes -local-shards and -shards")
		case *walDir != "":
			return fmt.Errorf("-replica-of replicates the primary's state; it excludes -wal-dir")
		case *preload > 0:
			return fmt.Errorf("-replica-of refuses writes; it excludes -preload")
		}
	}
	if *replicaSyncInterval < 0 {
		return fmt.Errorf("-replica-sync-interval must be >= 0, got %v", *replicaSyncInterval)
	}
	if *replicaSyncInterval != 0 && *replicaOf == "" {
		return fmt.Errorf("-replica-sync-interval requires -replica-of")
	}
	if *replicaAddrs != "" && *shardAddrs == "" {
		return fmt.Errorf("-replicas attaches replicas to -shards slots; it requires -shards")
	}

	logger := obs.NewLogger(os.Stderr)
	indexOpt := gallery.IndexOptions{Index: index.Options{Fanout: *indexFanout}}

	// One registry feeds every layer; nil (no -metrics-addr) keeps all
	// instrumentation as no-ops.
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}

	// The served backend is either a single store or a shard router,
	// either one optionally fronted by a write-ahead log.
	var (
		backend   matchsvc.Gallery
		store     *gallery.Store
		router    *shard.Router
		walStores []*wal.Store
		follower  *replica.Follower
	)
	openWAL := func(dir, name string, st *gallery.Store) (*wal.Store, error) {
		ws, err := wal.Open(dir, st, wal.Options{
			CompactEvery: *compactEvery,
			Metrics:      reg,
			Shard:        name,
		})
		if err != nil {
			return nil, fmt.Errorf("open WAL %s: %w", dir, err)
		}
		walStores = append(walStores, ws)
		rec := ws.Recovery()
		logger.Info("wal recovery", "dir", dir,
			"snapshot_entries", rec.SnapshotEntries, "replayed", rec.Replayed,
			"torn_tail", rec.TornTail, "truncated_bytes", rec.TruncatedBytes)
		return ws, nil
	}
	dialRemote := func(a string) (*matchsvc.Client, error) {
		dialCtx, dialCancel := context.WithTimeout(context.Background(), 5*time.Second)
		cli, err := matchsvc.DialContext(dialCtx, a)
		dialCancel()
		if err != nil {
			return nil, fmt.Errorf("dial shard %s: %w", a, err)
		}
		cli.SetRedialTimeout(5 * time.Second)
		// A hung shard must not wedge the front: bound every round
		// trip so abandoned scatter calls unwind instead of piling
		// up, giving the router's own deadline generous headroom.
		reqTimeout := 2 * *shardTimeout
		if reqTimeout <= 0 {
			reqTimeout = 2 * time.Minute
		}
		cli.SetRequestTimeout(reqTimeout)
		cli.SetMetrics(reg)
		cli.SetPoolSize(*poolSize)
		if *retryAttempts > 1 {
			cli.SetRetry(matchsvc.Retry{Attempts: *retryAttempts})
		}
		if *keepalive != 0 {
			cli.SetKeepalive(*keepalive)
		}
		return cli, nil
	}
	switch {
	case *replicaOf != "":
		store = gallery.New(nil)
		if *useIndex {
			if err := store.EnableIndex(indexOpt); err != nil {
				return fmt.Errorf("enable index: %w", err)
			}
		}
		if reg != nil {
			store.SetMetrics(reg, "replica")
		}
		cli, err := dialRemote(*replicaOf)
		if err != nil {
			return fmt.Errorf("replica: %w", err)
		}
		defer cli.Close()
		follower = replica.NewFollower(store, cli, replica.FollowerOptions{
			Interval: *replicaSyncInterval,
			Metrics:  reg,
			Shard:    "local",
		})
		// Catch up before accepting the first read, so a freshly started
		// replica never serves an empty gallery against a full primary.
		syncCtx, syncCancel := context.WithTimeout(context.Background(), 5*time.Minute)
		err = follower.Sync(syncCtx)
		syncCancel()
		if err != nil {
			return fmt.Errorf("replica: initial sync from %s: %w", *replicaOf, err)
		}
		logger.Info("replica synced", "primary", *replicaOf,
			"lsn", follower.LSN(), "enrollments", store.Len())
		backend = replica.ReadOnlyGallery{Store: store}

	case *shardAddrs != "":
		var primaries []string
		for _, a := range strings.Split(*shardAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				primaries = append(primaries, a)
			}
		}
		var groups [][]string
		if *replicaAddrs != "" {
			raw := strings.Split(*replicaAddrs, ";")
			if len(raw) != len(primaries) {
				return fmt.Errorf("-replicas lists %d slot groups, -shards has %d addresses", len(raw), len(primaries))
			}
			groups = make([][]string, len(raw))
			for i, g := range raw {
				for _, a := range strings.Split(g, ",") {
					if a = strings.TrimSpace(a); a != "" {
						groups[i] = append(groups[i], a)
					}
				}
			}
		}
		var backends []shard.Backend
		replicaCount := 0
		for i, a := range primaries {
			cli, err := dialRemote(a)
			if err != nil {
				return err
			}
			defer cli.Close()
			var b shard.Backend = shard.NewRemote(a, cli)
			if groups != nil && len(groups[i]) > 0 {
				members := make([]shard.Backend, 0, len(groups[i]))
				for _, ra := range groups[i] {
					rcli, err := dialRemote(ra)
					if err != nil {
						return fmt.Errorf("replica of %s: %w", a, err)
					}
					defer rcli.Close()
					members = append(members, shard.NewRemote(ra, rcli))
				}
				replicaCount += len(members)
				// The set keeps the primary's address as its ring name, so
				// attaching replicas to a live deployment moves no keys.
				b = replica.NewSet(a, b, members, replica.SetOptions{Metrics: reg})
			}
			backends = append(backends, b)
		}
		var err error
		router, err = shard.New(backends, shard.Options{ShardTimeout: *shardTimeout, Registry: reg, HedgeDelay: *hedgeDelay})
		if err != nil {
			return err
		}
		backend = shard.Front{Router: router}
		logger.Info("scatter-gather front", "remote_shards", len(backends), "replicas", replicaCount)

	case *localShards > 0:
		backends := make([]shard.Backend, *localShards)
		for i := range backends {
			name := fmt.Sprintf("shard-%d", i)
			st := gallery.New(nil)
			if *useIndex {
				if err := st.EnableIndex(indexOpt); err != nil {
					return fmt.Errorf("enable index on shard %d: %w", i, err)
				}
			}
			if reg != nil {
				st.SetMetrics(reg, name)
			}
			if *walDir != "" {
				ws, err := openWAL(filepath.Join(*walDir, name), name, st)
				if err != nil {
					return err
				}
				backends[i] = shard.NewLocal(name, ws)
				continue
			}
			backends[i] = shard.NewLocal(name, st)
		}
		var err error
		router, err = shard.New(backends, shard.Options{ShardTimeout: *shardTimeout, Registry: reg, HedgeDelay: *hedgeDelay})
		if err != nil {
			return err
		}
		backend = shard.Front{Router: router}
		logger.Info("local shards", "count", *localShards)

	default:
		store = gallery.New(nil)
		if *useIndex {
			if err := store.EnableIndex(indexOpt); err != nil {
				return fmt.Errorf("enable index: %w", err)
			}
		}
		if reg != nil {
			store.SetMetrics(reg, "local")
		}
		backend = store
		if *walDir != "" {
			ws, err := openWAL(*walDir, "local", store)
			if err != nil {
				return err
			}
			// The durable store shadows the mutating methods, so served
			// enrollments and removals hit the log before they are acked.
			backend = ws
		}
	}

	if *preload > 0 {
		dev, ok := sensor.ProfileByID(*deviceID)
		if !ok {
			return fmt.Errorf("unknown device %q", *deviceID)
		}
		cohort := population.NewCohort(rng.New(*seed).Child("cohort"), population.CohortOptions{Size: *preload})
		items := make([]shard.Enrollment, len(cohort.Subjects))
		for i, subj := range cohort.Subjects {
			imp, err := dev.CaptureSubject(subj, 0, sensor.CaptureOptions{})
			if err != nil {
				return fmt.Errorf("preload subject %d: %w", i, err)
			}
			items[i] = shard.Enrollment{
				ID:       fmt.Sprintf("subject-%04d", i),
				DeviceID: dev.ID,
				Template: imp.Template,
			}
		}
		if len(walStores) > 0 {
			// A durable gallery may already hold recovered subjects; the
			// preload tops it up to N instead of failing on the overlap.
			fresh := 0
			for _, it := range items {
				var err error
				if router != nil {
					err = router.Enroll(context.Background(), it.ID, it.DeviceID, it.Template)
				} else {
					err = backend.Enroll(it.ID, it.DeviceID, it.Template)
				}
				if errors.Is(err, gallery.ErrDuplicate) {
					continue
				}
				if err != nil {
					return fmt.Errorf("preload enroll %q: %w", it.ID, err)
				}
				fresh++
			}
			logger.Info("preloaded", "enrollments", fresh, "device", dev.Model,
				"already_recovered", len(items)-fresh)
		} else {
			if router != nil {
				if err := router.EnrollBatch(context.Background(), items); err != nil {
					return fmt.Errorf("preload: %w", err)
				}
			} else {
				for _, it := range items {
					if err := store.Enroll(it.ID, it.DeviceID, it.Template); err != nil {
						return fmt.Errorf("preload enroll %q: %w", it.ID, err)
					}
				}
			}
			logger.Info("preloaded", "enrollments", *preload, "device", dev.Model)
		}
	}

	if store != nil {
		if st, ok := store.IndexStats(); ok {
			logger.Info("index enabled", "templates", st.Templates,
				"keys", st.DistinctKeys, "postings", st.Postings)
		}
	}
	if router != nil {
		for i, b := range router.Backends() {
			n, err := b.Len(context.Background())
			if err != nil {
				logger.Error("shard unreachable", "shard", b.Name(), "index", i, "err", err)
				continue
			}
			logger.Info("shard ready", "shard", b.Name(), "index", i, "enrollments", n)
		}
	}

	// statsFn assembles the service summary OpStats and /admin/stats
	// serve — the process knows its topology, index state, and WAL in a
	// way the wire server cannot infer from the Gallery interface.
	statsFn := func() matchsvc.ServiceStats {
		st := matchsvc.ServiceStats{Shards: 1}
		if router != nil {
			st.Shards = len(router.Backends())
			st.Enrollments = router.Len(context.Background())
			for _, i := range router.Degraded() {
				st.DegradedShards = append(st.DegradedShards, router.Backends()[i].Name())
			}
			st.Indexed = *useIndex
		} else {
			st.Enrollments = backend.Len()
			_, st.Indexed = store.IndexStats()
		}
		if len(walStores) > 0 {
			w := &matchsvc.WALServiceStats{}
			for _, ws := range walStores {
				rec := ws.Recovery()
				w.SnapshotEntries += rec.SnapshotEntries
				w.Replayed += rec.Replayed
				w.TruncatedBytes += rec.TruncatedBytes
				if rec.TornTail {
					w.TornTails++
				}
				if size, err := ws.LogSize(); err == nil {
					w.LogBytes += size
				}
			}
			st.WAL = w
		}
		return st
	}

	srv := matchsvc.NewServer(backend, logger.StdLogger("matchsvc"))
	srv.SetIdleTimeout(*idleTimeout)
	srv.SetStatsFunc(statsFn)
	srv.SetMetrics(reg)
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", bound, "enrollments", backend.Len())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if follower != nil {
		// Continuous catch-up for the life of the process; stops with
		// the serve context on shutdown.
		go follower.Run(ctx)
	}
	if *metricsAddr != "" {
		view := func() adminView {
			v := adminView{Stats: statsFn()}
			if router != nil {
				degraded := make(map[int]bool)
				for _, i := range router.Degraded() {
					degraded[i] = true
				}
				for i, b := range router.Backends() {
					row := adminShard{Name: b.Name(), Degraded: degraded[i]}
					n, err := b.Len(context.Background())
					if err != nil {
						row.Err = err.Error()
					} else {
						row.Enrollments = n
					}
					v.Shards = append(v.Shards, row)
				}
			}
			return v
		}
		mbound, err := startAdmin(ctx, *metricsAddr, reg, view)
		if err != nil {
			return err
		}
		logger.Info("metrics listening", "addr", mbound)
	}
	if router != nil {
		// Degraded shards only rejoin the scatter set when something
		// probes them; do it periodically so a repaired shard does not
		// stay invisible until restart.
		go func() {
			ticker := time.NewTicker(30 * time.Second)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					for i, err := range router.CheckHealth(ctx) {
						if err != nil {
							logger.Error("health probe failed",
								"shard", router.Backends()[i].Name(), "index", i, "err", err)
						}
					}
				}
			}
		}()
	}
	if err := srv.Serve(ctx); err != nil {
		return err
	}
	for _, ws := range walStores {
		// A clean shutdown leaves only a snapshot behind, so the next
		// startup replays nothing.
		if err := ws.Compact(); err != nil {
			return fmt.Errorf("compact WAL: %w", err)
		}
		if err := ws.Close(); err != nil {
			return fmt.Errorf("close WAL: %w", err)
		}
	}
	if len(walStores) > 0 {
		logger.Info("wal compacted", "stores", len(walStores), "enrollments", backend.Len())
	}
	logger.Info("shut down")
	return nil
}
