// Command matchd runs the central fingerprint matching service: a TCP
// server owning the enrollment gallery, to which heterogeneous capture
// stations submit enroll/verify/identify requests — the deployment
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
// searches a candidate shortlist instead of the whole gallery.
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
// -replica-sync-interval, default 75ms), serving Verify/Identify/Len
// from local state and refusing writes. Replica staleness is the
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
// never silently drops them; the three flags are fields of the one
// matchsvc.ClientOptions every shard and replica connection is dialed
// with, and a dial includes the protocol handshake, so a front that
// starts has spoken to every shard. -hedge-delay enables hedged
// identification on any sharded deployment: a shard leg still
// unanswered after D is re-sent and the first answer wins, trimming
// slow-replica tail latency without changing results.
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
// or fpis.New with fpis.WithShards (a fleet of them). It builds what it
// serves through internal/topology, the constructor fpis.New uses, so
// every flag combination above is a deployment the library can also run
// in process. Per-request deadlines and cancellation are carried by
// context.Context across the wire: a request's envelope says how long
// its caller will still wait, the server runs it under a context that
// expires then (or when the connection drops), and a front passes what
// is left on to its shards.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/obs"
	"fpinterop/internal/population"
	"fpinterop/internal/replica"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
	"fpinterop/internal/shard"
	"fpinterop/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "matchd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("matchd", flag.ContinueOnError)
	// The deployment flags fill the topology description directly.
	var cfg topology.Config
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	preload := fs.Int("preload", 0, "enroll N synthetic subjects at startup")
	seed := fs.Uint64("seed", 2013, "seed for preloaded subjects")
	deviceID := fs.String("device", "D0", "device used for preloaded enrollments")
	fs.BoolVar(&cfg.Index, "index", false, "serve identification from a minutia-triplet candidate index")
	fs.IntVar(&cfg.IndexFanout, "index-fanout", 0, "index shortlist size (0 = default)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "drop connections idle (or mid-frame) longer than this; 0 disables")
	fs.IntVar(&cfg.LocalShards, "local-shards", 0, "partition the gallery across N in-process shards")
	shardAddrs := fs.String("shards", "", "comma-separated remote matchd addresses to scatter-gather over")
	replicaAddrs := fs.String("replicas", "", "read replicas per -shards slot: semicolon-separated groups in -shards order, each a comma-separated address list")
	replicaOf := fs.String("replica-of", "", "run as a read replica of the WAL-backed primary matchd at this address")
	replicaSyncInterval := fs.Duration("replica-sync-interval", 0, "how often a -replica-of instance polls the primary's log tail (0 = 75ms default)")
	fs.DurationVar(&cfg.ShardTimeout, "shard-timeout", 0, "per-shard identification deadline (0 = none)")
	fs.IntVar(&cfg.Client.PoolSize, "pool-size", 1, "connections pooled per remote shard (requires -shards)")
	fs.IntVar(&cfg.Client.Retry.Attempts, "retry", 0, "total attempts for idempotent shard calls after transport failures, 0/1 = no retries (requires -shards)")
	fs.DurationVar(&cfg.Client.Keepalive, "keepalive", 0, "idle-connection keepalive interval toward remote shards; 0 = client default, negative disables (requires -shards)")
	fs.DurationVar(&cfg.HedgeDelay, "hedge-delay", 0, "re-send a shard identify leg still unanswered after this long, 0 = off (requires -local-shards or -shards)")
	fs.StringVar(&cfg.WALDir, "wal-dir", "", "write-ahead-log directory: mutations are durable and replayed at startup")
	fs.IntVar(&cfg.CompactEvery, "compact-every", 0, "compact the WAL into a snapshot after every N mutations (0 = only on shutdown)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /healthz, /admin/stats and /debug/pprof on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Ranges and which settings go together are topology.Config.Validate's
	// to say (Build applies it); what stays here is -replica-of's.
	if *replicaOf != "" {
		switch {
		case cfg.LocalShards > 0 || *shardAddrs != "":
			return fmt.Errorf("-replica-of runs a single-store replica; it excludes -local-shards and -shards")
		case cfg.WALDir != "":
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

	logger := newLogger(os.Stderr)
	serverLog := logger.With("component", "matchsvc")

	// One registry feeds every layer; nil (no -metrics-addr) keeps all
	// instrumentation as no-ops.
	if *metricsAddr != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	reg := cfg.Metrics
	var err error
	if cfg.Shards, cfg.Replicas, err = parseShards(*shardAddrs, *replicaAddrs); err != nil {
		return err
	}

	// The one root: start-up work (dialing shards, a replica's first
	// catch-up, the preload) and serving alike end at SIGINT/SIGTERM.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dialCtx, dialDone := context.WithTimeout(ctx, 5*time.Second)
	topo, err := topology.Build(dialCtx, cfg)
	dialDone()
	if err != nil {
		return err
	}
	defer topo.Close()
	router := topo.Router
	for i, ws := range topo.WALs {
		rec := ws.Recovery()
		logger.Info("wal recovery", "store", i,
			"snapshot_entries", rec.SnapshotEntries, "replayed", rec.Replayed,
			"torn_tail", rec.TornTail, "truncated_bytes", rec.TruncatedBytes)
	}

	srv := matchsvc.NewBackendServer(topo.Backend, serverLog)
	var follower *replica.Follower
	switch {
	case *replicaOf != "":
		// A replica is the single-store topology served with its writes
		// refused, and a follower feeding the store from the primary's log.
		store := topo.Stores[0]
		dialCtx, dialDone := context.WithTimeout(ctx, 5*time.Second)
		cli, err := topology.Dial(dialCtx, *replicaOf,
			matchsvc.ClientOptions{RequestTimeout: topology.RequestTimeout, RedialTimeout: topology.RedialTimeout}, reg)
		dialDone()
		if err != nil {
			return fmt.Errorf("replica: dial primary %s: %w", *replicaOf, err)
		}
		defer cli.Close()
		follower = replica.NewFollower(store, cli, replica.FollowerOptions{
			Interval: *replicaSyncInterval,
			Metrics:  reg,
			Shard:    "local",
			Logger:   logger,
		})
		// Catch up before accepting the first read, so a freshly started
		// replica never serves an empty gallery against a full primary.
		syncCtx, syncDone := context.WithTimeout(ctx, 5*time.Minute)
		err = follower.Sync(syncCtx)
		syncDone()
		if err != nil {
			return fmt.Errorf("replica: initial sync from %s: %w", *replicaOf, err)
		}
		logger.Info("replica synced", "primary", *replicaOf,
			"lsn", follower.LSN(), "enrollments", store.Len())
		srv = matchsvc.NewServer(replica.ReadOnlyGallery{Store: store}, serverLog)
	case len(cfg.Shards) > 0:
		replicaCount := 0
		for _, g := range cfg.Replicas {
			replicaCount += len(g)
		}
		logger.Info("scatter-gather front", "remote_shards", len(cfg.Shards), "replicas", replicaCount)
	case cfg.LocalShards > 0:
		logger.Info("local shards", "count", cfg.LocalShards)
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
		// The gallery may already hold recovered (or, behind a front,
		// previously loaded) subjects; the preload tops it up to N
		// instead of failing on the overlap: each subject is a batch of
		// one, so a duplicate costs only itself.
		fresh := 0
		for i := range items {
			err := topo.Backend.EnrollBatch(ctx, items[i:i+1])
			if errors.Is(err, gallery.ErrDuplicate) {
				continue
			}
			if err != nil {
				return fmt.Errorf("preload enroll %q: %w", items[i].ID, err)
			}
			fresh++
		}
		logger.Info("preloaded", "enrollments", fresh, "device", dev.Model,
			"already_enrolled", len(items)-fresh)
	}

	if router == nil {
		if st, ok := topo.Stores[0].IndexStats(); ok {
			logger.Info("index enabled", "templates", st.Templates,
				"keys", st.DistinctKeys, "postings", st.Postings)
		}
	} else {
		for i, b := range router.Backends() {
			n, err := b.Len(ctx)
			if err != nil {
				logger.Error("shard unreachable", "shard", b.Name(), "index", i, "err", err)
				continue
			}
			logger.Info("shard ready", "shard", b.Name(), "index", i, "enrollments", n)
		}
	}

	srv.SetIdleTimeout(*idleTimeout)
	srv.SetStatsFunc(topo.Stats)
	srv.SetMetrics(reg)
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	enrolled, _ := topo.Backend.Len(ctx)
	logger.Info("listening", "addr", bound, "enrollments", enrolled)

	if follower != nil {
		// Continuous catch-up for the life of the process; stops with
		// the serve context on shutdown.
		go follower.Run(ctx)
	}
	if *metricsAddr != "" {
		view := func(ctx context.Context) (adminView, error) {
			st, err := topo.Stats(ctx)
			if err != nil {
				return adminView{}, err
			}
			v := adminView{Stats: st}
			if router != nil {
				degraded := router.Degraded()
				for i, b := range router.Backends() {
					row := adminShard{Name: b.Name(), Degraded: slices.Contains(degraded, i)}
					if n, err := b.Len(ctx); err != nil {
						row.Err = err.Error()
					} else {
						row.Enrollments = n
					}
					v.Shards = append(v.Shards, row)
				}
			}
			return v, nil
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
	for _, ws := range topo.WALs {
		// A clean shutdown leaves only a snapshot behind, so the next
		// startup replays nothing.
		if err := ws.Compact(); err != nil {
			return fmt.Errorf("compact WAL: %w", err)
		}
	}
	if len(topo.WALs) > 0 {
		logger.Info("wal compacted", "stores", len(topo.WALs))
	}
	if err := topo.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	logger.Info("shut down")
	return nil
}

// newLogger returns matchd's logger, writing logfmt lines to w.
func newLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, nil))
}

// parseShards splits -shards ("a,b") into addresses and -replicas
// ("r0a,r0b;;r2a") into one address group per -shards slot.
func parseShards(shards, replicas string) (primaries []string, groups [][]string, err error) {
	split := func(list string) (out []string) {
		for _, a := range strings.Split(list, ",") {
			if a = strings.TrimSpace(a); a != "" {
				out = append(out, a)
			}
		}
		return out
	}
	primaries = split(shards)
	if replicas == "" {
		return primaries, nil, nil
	}
	raw := strings.Split(replicas, ";")
	if len(raw) != len(primaries) {
		return nil, nil, fmt.Errorf("-replicas lists %d slot groups, -shards has %d addresses", len(raw), len(primaries))
	}
	for _, g := range raw {
		groups = append(groups, split(g))
	}
	return primaries, groups, nil
}
