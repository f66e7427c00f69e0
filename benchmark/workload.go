package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"fpinterop/fpis"
	"fpinterop/internal/match"
	"fpinterop/internal/obs"
	"fpinterop/internal/rng"
)

// windowsPerPhase is how many equal windows each measured phase is cut
// into; the reported value is the median of the per-window values.
const windowsPerPhase = 3

// phaseSpec is one measured phase: an open loop over streams, or a
// closed loop of one request kind with one client per connection.
type phaseSpec struct {
	name    string
	frac    float64  // share of --seconds
	streams []stream // open loop when set
	closed  opKind   // closed loop otherwise
	// undo removes, unmeasured, what each window of the phase enrolled,
	// so that the gallery the next round searches has the size the
	// workload's name says.
	undo bool
}

// deployment is a started topology.
type deployment struct {
	front *proc // the process clients dial
	// tiers lists every process in start order: a tier is started (and
	// on restart, recovered) together, and must listen before the next.
	tiers [][]*proc
	// replicaOf maps each read replica to its primary.
	replicaOf map[*proc]*proc
	// attach, when set, completes the topology once the gallery is
	// loaded; it may replace front and tiers.
	attach func() error
}

func (d *deployment) procs() []*proc {
	var out []*proc
	for _, t := range d.tiers {
		out = append(out, t...)
	}
	return out
}

// workload is one traffic mix against one topology.
type workload struct {
	name string
	why  string
	n    int // gallery size
	// durable deployments recover their gallery from the write-ahead
	// log after kill -9; the others come back empty and are reloaded by
	// the client, which is then what restart_s measures.
	durable bool
	// setups is how many times set-up, and later restart, is repeated
	// for a median: once where it takes seconds, more where it is short
	// enough for scheduling noise to be a tenth of it.
	setups int
	deploy func(h *harness) (*deployment, error)
	phases []phaseSpec
}

// single deploys one matchd; the argument "WALDIR" stands for the run's
// write-ahead-log directory.
func single(args ...string) func(h *harness) (*deployment, error) {
	return func(h *harness) (*deployment, error) {
		resolved := make([]string, len(args))
		for i, a := range args {
			if a == "WALDIR" {
				a = h.walDir("matchd")
			}
			resolved[i] = a
		}
		p, err := h.start("matchd", resolved...)
		if err != nil {
			return nil, err
		}
		return &deployment{front: p, tiers: [][]*proc{{p}}}, nil
	}
}

// shardedReplicated starts two durable primaries behind a front; the
// read replicas and the front that knows them are attached once the
// gallery is loaded, the way replicas join a deployment that already
// holds data: they bootstrap from one snapshot each. Replicas started
// empty and left to tail a 10 000-subject bulk load instead made set-up
// take anything from 12 to 57 s on this box.
func shardedReplicated(h *harness) (*deployment, error) {
	d := &deployment{replicaOf: map[*proc]*proc{}}
	var primaries []*proc
	for _, name := range []string{"a", "b"} {
		p, err := h.start("shard-"+name, "-index", "-wal-dir", h.walDir(name))
		if err != nil {
			return nil, err
		}
		primaries = append(primaries, p)
	}
	shards := primaries[0].addr + "," + primaries[1].addr
	loader, err := h.start("front-loading", "-shards", shards, "-pool-size", "2")
	if err != nil {
		return nil, err
	}
	d.front = loader
	d.tiers = [][]*proc{primaries, {loader}}
	d.attach = func() error {
		h.kill(loader)
		var replicas []*proc
		for _, p := range primaries {
			r, err := h.start("replica-of-"+p.name, "-index", "-replica-of", p.addr)
			if err != nil {
				return err
			}
			replicas = append(replicas, r)
			d.replicaOf[r] = p
		}
		front, err := h.start("front", "-shards", shards,
			"-replicas", replicas[0].addr+";"+replicas[1].addr,
			"-hedge-delay", "50ms", "-pool-size", "2")
		if err != nil {
			return err
		}
		d.front = front
		d.tiers = [][]*proc{primaries, replicas, {front}}
		return nil
	}
	return d, nil
}

// workloads is the benchmark: four traffic mixes that load the layers
// differently. The why strings are repeated in BENCHMARK.json.
var workloads = []workload{
	{
		name: "identify-10k", n: 10000, durable: true, setups: 1,
		why:    "default durable deployment (-index -wal-dir): the triplet-index vote is most of a search, and restart pays WAL replay plus the index rebuild",
		deploy: single("-index", "-wal-dir", "WALDIR"),
		phases: []phaseSpec{
			{name: "identify", frac: 0.60, streams: []stream{{kind: opIdentify, rate: 30}}},
			{name: "saturation", frac: 0.15, closed: opIdentify},
			{name: "verify", frac: 0.10, closed: opVerify},
			{name: "enroll", frac: 0.15, streams: []stream{{kind: opEnroll, rate: 60}}, undo: true},
		},
	},
	{
		name: "scan-verify-1k", n: 1000, setups: 7,
		why:    "no index and no WAL: the matcher and the gallery fan-out are all of identify, so index or WAL work must read as no change here; verify is half wire and codec",
		deploy: single(),
		phases: []phaseSpec{
			{name: "identify", frac: 0.65, streams: []stream{{kind: opIdentify, rate: 5}}},
			{name: "saturation", frac: 0.15, closed: opIdentify},
			{name: "verify", frac: 0.10, closed: opVerify},
			{name: "enroll", frac: 0.10, streams: []stream{{kind: opEnroll, rate: 60}}, undo: true},
		},
	},
	{
		name: "mixed-write-5k", n: 5000, durable: true, setups: 1,
		why:    "enroll 60/s, remove 20/s and identify 20/s at once, compaction every 250 writes: index.Add, group commit and compaction take the write lock beside readers, so a read gain that costs writers shows here",
		deploy: single("-index", "-wal-dir", "WALDIR", "-compact-every", "250"),
		phases: []phaseSpec{
			{name: "mixed", frac: 0.70, streams: []stream{{kind: opEnroll, rate: 60}, {kind: opRemove, rate: 20}, {kind: opIdentify, rate: 20}}},
			{name: "saturation", frac: 0.15, closed: opIdentify},
			{name: "verify", frac: 0.15, closed: opVerify},
		},
	},
	{
		name: "sharded-replicated-10k", n: 10000, durable: true, setups: 1,
		why:    "the identify-10k traffic through a front over two primaries with one replica each, plus 10 enroll/s shipping WAL tail: the difference is scatter-gather, replica dispatch and the second wire hop",
		deploy: shardedReplicated,
		phases: []phaseSpec{
			// The 10 enroll/s beside the searches are load, not a
			// measurement: whether one waits behind a search's read lock
			// is a coin toss per request, and their median sits on the
			// edge between the two cases.
			{name: "identify", frac: 0.60, streams: []stream{{kind: opIdentify, rate: 15}, {kind: opEnroll, rate: 10, background: true}}},
			{name: "saturation", frac: 0.15, closed: opIdentify},
			{name: "verify", frac: 0.10, closed: opVerify},
			{name: "enroll", frac: 0.15, streams: []stream{{kind: opEnroll, rate: 60}}, undo: true},
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	matchd  string // matchd binary
	runDir  string // scratch for logs and WAL dirs, removed afterwards
	outDir  string // trace.jsonl and the last result per workload
	tr      *tracer
	out     io.Writer
}

// phaseResult is what one phase produced.
type phaseResult struct {
	spec    phaseSpec
	results []opResult
	lengths []time.Duration // closed loop: measured window lengths
	undone  []opResult      // unmeasured removals by an undo phase
}

// runResult is everything one run of one workload reports.
type runResult struct {
	workload  string
	endToEnd  map[string]windowStat
	perLayer  map[string]float64
	attempted int
	failed    int
	problems  []string
}

// note keeps the first few reasons a run is not clean, for the report.
func (r *runResult) note(format string, args ...any) {
	if len(r.problems) < 12 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// observation is the outside view of the servers at one instant.
type observation struct {
	at      time.Time
	metrics map[string]snapshot // by process name
	cpu     float64             // CPU seconds consumed by all servers so far
	rssKB   float64             // resident set of all servers now
	selfCPU float64             // CPU seconds consumed by the benchmark so far
}

func observe(procs []*proc, withMetrics bool) (observation, error) {
	o := observation{at: time.Now(), metrics: map[string]snapshot{}}
	for _, p := range procs {
		c, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return o, err
		}
		o.cpu += c
		kb, err := p.rssKB()
		if err != nil {
			return o, err
		}
		o.rssKB += kb
		if withMetrics {
			s, err := fetchMetrics(p.metricsAddr)
			if err != nil {
				return o, err
			}
			o.metrics[p.name] = s
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return o, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	o.selfCPU = tv(ru.Utime) + tv(ru.Stime)
	return o, nil
}

// fleet sums the change in every process's metrics between two
// observations; one picks a single process's.
func fleet(a, b observation) snapshot {
	total := snapshot{values: map[string]float64{}, hists: map[string]histogram{}}
	for name, after := range b.metrics {
		total.merge(after.since(a.metrics[name]))
	}
	return total
}

func one(a, b observation, name string) snapshot { return b.metrics[name].since(a.metrics[name]) }

// loadThrough enrolls the base gallery over the wire in groups of 256.
func loadThrough(ctx context.Context, addr string, fx *fixture) error {
	svc, err := fpis.Dial(ctx, addr)
	if err != nil {
		return err
	}
	defer svc.Close()
	const group = 256
	for lo := 0; lo < len(fx.base); lo += group {
		if err := svc.EnrollBatch(ctx, fx.base[lo:min(lo+group, len(fx.base))]); err != nil {
			return fmt.Errorf("load gallery: %w", err)
		}
	}
	return nil
}

// awaitReplicas returns once every replica holds as many enrollments as
// its primary.
func awaitReplicas(ctx context.Context, d *deployment) error {
	for r, p := range d.replicaOf {
		if err := awaitReplica(ctx, r, p); err != nil {
			return err
		}
	}
	return nil
}

func awaitReplica(ctx context.Context, replica, primary *proc) error {
	rs, err := fpis.Dial(ctx, replica.addr)
	if err != nil {
		return err
	}
	defer rs.Close()
	ps, err := fpis.Dial(ctx, primary.addr)
	if err != nil {
		return err
	}
	defer ps.Close()
	deadline := time.Now().Add(120 * time.Second)
	for {
		want, err := ps.Stats(ctx)
		if err != nil {
			return err
		}
		got, err := rs.Stats(ctx)
		if err != nil {
			return err
		}
		if got.Enrollments == want.Enrollments {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s stuck at %d of %d enrollments", replica.name, got.Enrollments, want.Enrollments)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// firstAnswer sends the first mated probe and judges the answer: set-up
// and restart are over when the deployment answers correctly, not when
// it binds its port. A wrong answer is a failed request, not an error.
func firstAnswer(ctx context.Context, addr string, chk *checker, res *runResult, after string) error {
	svc, err := fpis.Dial(ctx, addr)
	if err != nil {
		return err
	}
	defer svc.Close()
	r := opResult{kind: opIdentify}
	for i, p := range chk.fx.probes {
		if p.mate != "" {
			r.probe = i
			break
		}
	}
	if r.cands, err = svc.Identify(ctx, chk.fx.probes[r.probe].tpl, topK); err != nil {
		return err
	}
	res.attempted++
	if err := chk.identifyProblem(match.NewSession(nil), &r); err != nil {
		res.failed++
		res.note("first answer after %s: %v", after, err)
	}
	return nil
}

// setUp starts the workload's topology and makes it ready to serve:
// spawn, load the gallery over the wire, attach and await the replicas,
// first correct answer.
func setUp(ctx context.Context, h *harness, w workload, chk *checker, res *runResult) (*deployment, error) {
	dep, err := w.deploy(h)
	if err != nil {
		return nil, err
	}
	if err := loadThrough(ctx, dep.front.addr, chk.fx); err != nil {
		return nil, err
	}
	if dep.attach != nil {
		if err := dep.attach(); err != nil {
			return nil, err
		}
	}
	if err := awaitReplicas(ctx, dep); err != nil {
		return nil, err
	}
	return dep, firstAnswer(ctx, dep.front.addr, chk, res, "set-up")
}

// restart kills every process with SIGKILL, as a power loss would,
// starts them again tier by tier, and waits for the first correct
// answer. A deployment without a write-ahead log comes back empty; the
// client loads it again, and that is then part of its restart.
func restart(ctx context.Context, h *harness, dep *deployment, w workload, chk *checker, res *runResult) error {
	for _, p := range dep.procs() {
		h.kill(p)
	}
	for _, tier := range dep.tiers {
		var (
			wg   sync.WaitGroup
			errs = make([]error, len(tier))
		)
		for i, p := range tier {
			wg.Add(1)
			go func(i int, p *proc) {
				defer wg.Done()
				errs[i] = h.launch(p)
			}(i, p)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	if !w.durable {
		if err := loadThrough(ctx, dep.front.addr, chk.fx); err != nil {
			return err
		}
	}
	return firstAnswer(ctx, dep.front.addr, chk, res, "restart")
}

// runWorkload sets a workload up, measures it, restarts it, audits it
// and tears it down.
func runWorkload(ctx context.Context, w workload, cfg runConfig) (res *runResult, err error) {
	res = &runResult{workload: w.name, endToEnd: map[string]windowStat{}, perLayer: map[string]float64{}}
	windows, seconds := windowsPerPhase, cfg.seconds
	if cfg.trace {
		// The traced run repeats the workload for one window; the time
		// it gives up goes to the ladder.
		windows, seconds = 1, cfg.seconds/windowsPerPhase
	}
	// dur is the measured time a phase gets over all its windows.
	dur := func(ph phaseSpec) time.Duration { return time.Duration(ph.frac * seconds * float64(time.Second)) }

	fresh := 8
	for _, ph := range w.phases {
		for _, s := range ph.streams {
			if s.kind == opEnroll {
				fresh += int(math.Ceil(s.rate * dur(ph).Seconds()))
			}
		}
	}
	fx, err := newFixture(cfg.seed, w.n, fresh)
	if err != nil {
		return nil, err
	}
	chk := &checker{fx: fx}
	tfc := &traffic{fx: fx}

	// Set-up. One that takes a tenth of a second is repeated and the
	// median reported; the last deployment is the one that gets measured.
	var (
		h      *harness
		dep    *deployment
		setups []float64
	)
	defer func() {
		if h == nil {
			return
		}
		if serr := h.stopAll(); serr != nil && err == nil {
			err = fmt.Errorf("teardown: %w", serr)
		}
	}()
	for attempt := 0; attempt < w.setups; attempt++ {
		if h != nil {
			if err := h.stopAll(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		if h, err = newHarness(cfg.matchd, filepath.Join(cfg.runDir, fmt.Sprintf("%s-%d", w.name, attempt)), cfg.trace); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if dep, err = setUp(ctx, h, w, chk, res); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.endToEnd["setup_s"] = medianOfWindows(setups)
	loaded, err := observe(dep.procs(), false)
	if err != nil {
		return nil, err
	}
	res.perLayer["matchd.cpu_ms_per_enroll"] = loaded.cpu * 1e3 / float64(w.n)

	// One connection per worker, no more workers than processors.
	var dialOpts []fpis.Option
	clientReg := obs.NewRegistry()
	if cfg.trace {
		dialOpts = append(dialOpts, fpis.WithMetrics(clientReg))
	}
	svcs := make([]fpis.Service, clients)
	for i := range svcs {
		if svcs[i], err = fpis.Dial(ctx, dep.front.addr, dialOpts...); err != nil {
			return nil, err
		}
		defer svcs[i].Close()
	}

	// Warm-up, unmeasured: connections, the servers' pooled matcher
	// sessions and vote scratch, and the replicas' first reads.
	clock := time.Now()
	warm := &traffic{fx: fx}
	runClosed(ctx, svcs, warm, opIdentify, warmup, 0, clock)
	runClosed(ctx, svcs, warm, opVerify, warmup/4, 0, clock)

	// Measured phases, as rounds: every round runs one window of every
	// phase, so the windows of a phase lie seconds apart. This box's
	// processor speed wanders over seconds; three adjacent windows would
	// all catch the same slow spell, three spread ones rarely do, and the
	// median of three then drops the one that did. Observations bracket
	// each phase of the single round of a traced run.
	var (
		phases = make([]phaseResult, len(w.phases))
		obsv   []observation
	)
	for i, ph := range w.phases {
		phases[i].spec = ph
	}
	worstLag := func() int64 { return 0 }
	if cfg.trace {
		worstLag = sampleReplicaLag(dep)
	}
	clock = time.Now()
	for round := 0; round < windows; round++ {
		for i, ph := range w.phases {
			o, err := observe(dep.procs(), cfg.trace)
			if err != nil {
				return nil, err
			}
			obsv = append(obsv, o)
			pr := &phases[i]
			window := dur(ph) / time.Duration(windows)
			if len(ph.streams) > 0 {
				src := rng.New(cfg.seed).Child(fmt.Sprintf("schedule/%s/%s/%d", w.name, ph.name, round))
				pr.results = append(pr.results, runOpen(ctx, svcs, tfc, buildSchedule(src, ph.streams, window), round, clock)...)
			} else {
				use := svcs
				if ph.closed == opVerify {
					// One station waiting for its 1:1 answer. A second
					// client would make three or four busy threads on two
					// processors, and the number would be about the
					// scheduler.
					use = svcs[:1]
				}
				results, length := runClosed(ctx, use, tfc, ph.closed, window, round, clock)
				pr.results = append(pr.results, results...)
				pr.lengths = append(pr.lengths, length)
			}
			if ph.undo {
				pr.undone = append(pr.undone, undoEnrolls(ctx, svcs[0], pr.results, round, clock)...)
			}
		}
	}
	last, err := observe(dep.procs(), cfg.trace)
	if err != nil {
		return nil, err
	}
	obsv = append(obsv, last)
	if lag := worstLag(); cfg.trace {
		res.perLayer["replica.lag_records_max"] = float64(lag)
	}
	// Resident memory is read at every phase boundary and the median
	// kept: one reading depends on where each server's collector is.
	rss := make([]float64, len(obsv))
	for i, o := range obsv {
		rss[i] = o.rssKB
	}
	res.endToEnd["rss_kb_per_enrollment"] = windowStat{Value: percentile(rss, 0.5) / float64(w.n)}
	res.perLayer["matchd.rss_mb"] = percentile(rss, 0.5) / 1024

	// Output check, after the fact so it never competes with a server.
	for i := range phases {
		for _, p := range chk.checkAll(phases[i].results) {
			res.note("%s: %s", phases[i].spec.name, p)
		}
	}
	if !w.durable {
		// Static gallery, exhaustive search: the whole top-k has one
		// right value, so compare it with a reference store.
		problems, err := chk.checkReference(ctx, phases[0].results)
		if err != nil {
			return nil, err
		}
		for _, p := range problems {
			res.note("%s", p)
		}
	}

	// Crash and restart, as often as set-up was repeated.
	var restarts []float64
	for attempt := 0; attempt < w.setups; attempt++ {
		t0 := time.Now()
		if err := restart(ctx, h, dep, w, chk, res); err != nil {
			return nil, err
		}
		restarts = append(restarts, time.Since(t0).Seconds())
	}
	res.perLayer["matchd.restart_s"] = medianOfWindows(restarts).Value
	if w.durable {
		var writes []opResult
		for i := range phases {
			writes = append(append(writes, phases[i].results...), phases[i].undone...)
		}
		after, err := fpis.Dial(ctx, dep.front.addr)
		if err != nil {
			return nil, err
		}
		checked, lost, problems := chk.audit(ctx, after, writes)
		after.Close()
		res.attempted += checked
		res.failed += lost
		for _, p := range problems {
			res.note("%s", p)
		}
	}
	slowest := func(ps []*proc) float64 {
		worst := 0.0
		for _, p := range ps {
			worst = math.Max(worst, p.startToListen.Seconds())
		}
		return worst
	}
	res.perLayer["matchd.start_to_listen_s"] = slowest(dep.tiers[0])
	if len(dep.tiers) > 1 {
		res.perLayer["replica.bootstrap_s"] = slowest(dep.tiers[1])
	}

	summarize(res, chk, phases, cfg.out)
	if cfg.trace {
		if err := layerMetrics(res, dep, phases, obsv, clientReg, cfg.tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// clients is how many connections, each with one worker goroutine, send
// the load: the box has two processors, and a generator that needs more
// of them than that would be measuring itself.
const clients = 2

// warmup is how long the unmeasured closed-loop identify before the
// first phase lasts.
const warmup = 600 * time.Millisecond

// undoEnrolls removes what one window enrolled. The removals are kept:
// they are acknowledged writes like any other and are audited after
// the crash.
func undoEnrolls(ctx context.Context, svc fpis.Service, results []opResult, window int, clock time.Time) []opResult {
	var out []opResult
	for i := range results {
		if r := &results[i]; r.kind == opEnroll && r.window == window && r.err == nil {
			u := opResult{kind: opRemove, window: window, id: r.id, sent: time.Since(clock)}
			u.due = u.sent
			u.err = svc.Remove(ctx, r.id)
			u.done = time.Since(clock)
			out = append(out, u)
		}
	}
	return out
}
