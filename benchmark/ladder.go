package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"fpinterop/fpis"
	"fpinterop/internal/gallery"
	"fpinterop/internal/index"
	"fpinterop/internal/match"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/obs"
	"fpinterop/internal/replica"
	"fpinterop/internal/shard"
	"fpinterop/internal/wal"
)

// The layer ladder times calls into each layer's public functions over
// one in-process gallery: every rung is the rung below plus one layer,
// so a layer's cost is a subtraction between two rungs for the same
// probe. It runs in the benchmark process, single-threaded, with no
// server processes alive.

const (
	ladderProbes = 30  // probes taken up every rung
	voteProbes   = 128 // probes for the vote rung alone, and shortlist recall
	ladderWarmup = 6   // leading probes run once, unrecorded, per rung
)

// ladder accumulates per-layer metrics by name.
type ladder struct {
	ctx     context.Context
	metrics map[string]float64
	tr      *tracer
	clock   int64 // synthetic trace clock, ns; see emit
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianDur(ds []time.Duration) time.Duration {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d)
	}
	return time.Duration(percentile(vals, 0.5))
}

// timeEach runs fn once per index and returns each call's duration.
func timeEach(n int, fn func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0)
	}
	return out, nil
}

// matedProbes returns the first n mated probes of the fixture's shuffle.
func matedProbes(fx *fixture, n int) []probe {
	var out []probe
	for _, p := range fx.probes {
		if p.mate != "" && len(out) < n {
			out = append(out, p)
		}
	}
	return out
}

// loopback serves a store on 127.0.0.1 inside this process.
func loopback(ctx context.Context, store *gallery.Store) (addr string, stop func(), err error) {
	srv := matchsvc.NewServer(store, nil)
	addr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		srv.Serve(sctx)
		close(done)
	}()
	return addr, func() {
		cancel()
		srv.Close()
		<-done
	}, nil
}

// indexedStore enrolls items into a store with the triplet index on,
// the way matchd -index holds them.
func indexedStore(items []fpis.Enrollment) (*gallery.Store, error) {
	st := gallery.New(nil)
	if err := st.EnableIndex(gallery.IndexOptions{}); err != nil {
		return nil, err
	}
	for _, e := range items {
		if err := st.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// heapAlloc returns live heap bytes after a collection.
func heapAlloc() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// scoreShortlist runs the full matcher over a shortlist the way the
// store does: one session per worker, GOMAXPROCS workers.
func scoreShortlist(sessions []*match.Session, prepared []*match.Prepared, p *fpis.Template) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	chunk := (len(prepared) + len(sessions) - 1) / len(sessions)
	for w, sess := range sessions {
		lo, hi := w*chunk, min((w+1)*chunk, len(prepared))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(sess *match.Session, part []*match.Prepared) {
			defer wg.Done()
			for _, g := range part {
				if _, err := sess.MatchPrepared(g, p); err != nil {
					mu.Lock()
					ferr = err
					mu.Unlock()
				}
			}
		}(sess, prepared[lo:hi])
	}
	wg.Wait()
	return ferr
}

// runLadder fills every ladder-sourced per-layer metric.
func runLadder(ctx context.Context, seed uint64, dir string, tr *tracer) (map[string]float64, error) {
	l := &ladder{ctx: ctx, metrics: map[string]float64{}, tr: tr}
	fx1k, err := newFixture(seed, 1000, 0)
	if err != nil {
		return nil, err
	}
	fx10k, err := newFixture(seed, 10000, 0)
	if err != nil {
		return nil, err
	}
	steps := []func() error{
		func() error { return l.codecAndKernel(fx10k) },
		func() error { return l.small(fx1k) },
		func() error { return l.rungs(fx10k) },
		func() error { return l.walMicro(fx10k, dir) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l.metrics, nil
}

// codecAndKernel times the leaf costs: template codec and Prepare.
func (l *ladder) codecAndKernel(fx *fixture) error {
	items := fx.base[:1000]
	encoded := make([][]byte, len(items))
	d, err := timeEach(len(items), func(i int) (err error) {
		encoded[i], err = minutiae.Marshal(items[i].Template)
		return err
	})
	if err != nil {
		return err
	}
	l.metrics["minutiae.marshal_us"] = us(medianDur(d))
	bytesTotal := 0
	for _, b := range encoded {
		bytesTotal += len(b)
	}
	l.metrics["minutiae.bytes_per_template"] = float64(bytesTotal) / float64(len(items))
	d, err = timeEach(len(items), func(i int) error {
		_, err := minutiae.Unmarshal(encoded[i])
		return err
	})
	if err != nil {
		return err
	}
	l.metrics["minutiae.unmarshal_us"] = us(medianDur(d))

	m := &match.HoughMatcher{}
	d, _ = timeEach(len(items), func(i int) error { m.Prepare(items[i].Template); return nil })
	l.metrics["match.prepare_us"] = us(medianDur(d))
	return nil
}

// small measures the 1k gallery: exhaustive scan, indexed identify, vote.
func (l *ladder) small(fx *fixture) error {
	probes := matedProbes(fx, ladderProbes)
	plain := gallery.New(nil)
	d, err := timeEach(len(fx.base), func(i int) error {
		e := fx.base[i]
		return plain.Enroll(e.ID, e.DeviceID, e.Template)
	})
	if err != nil {
		return err
	}
	l.metrics["gallery.enroll_us"] = us(medianDur(d))
	d, err = timeEach(len(probes), func(i int) error {
		_, _, err := plain.IdentifyDetailedContext(l.ctx, probes[i].tpl, topK)
		return err
	})
	if err != nil {
		return err
	}
	l.metrics["gallery.scan_ms.1k"] = ms(medianDur(d[ladderWarmup:]))
	d, err = timeEach(len(probes), func(i int) error {
		_, err := plain.VerifyContext(l.ctx, probes[i].mate, probes[i].tpl)
		return err
	})
	if err != nil {
		return err
	}
	l.metrics["gallery.verify_us"] = us(medianDur(d[ladderWarmup:]))

	idx := index.New(index.Options{})
	for _, e := range fx.base {
		if err := idx.Add(e.ID, e.Template); err != nil {
			return err
		}
	}
	d, _ = timeEach(len(probes), func(i int) error { idx.Candidates(probes[i].tpl, 0); return nil })
	l.metrics["index.vote_ms.1k"] = ms(medianDur(d[ladderWarmup:]))

	st, err := indexedStore(fx.base)
	if err != nil {
		return err
	}
	d, err = timeEach(len(probes), func(i int) error {
		_, _, err := st.IdentifyDetailedContext(l.ctx, probes[i].tpl, topK)
		return err
	})
	if err != nil {
		return err
	}
	l.metrics["gallery.identify_ms.1k"] = ms(medianDur(d[ladderWarmup:]))
	return nil
}

// rungs climbs the whole ladder over the 10k gallery.
func (l *ladder) rungs(fx *fixture) error {
	ctx := l.ctx
	n := float64(len(fx.base))

	// Rung 0a: the triplet index alone, built the way a restart or a
	// replica bootstrap rebuilds it.
	before := heapAlloc()
	idx := index.New(index.Options{})
	adds, err := timeEach(len(fx.base), func(i int) error { return idx.Add(fx.base[i].ID, fx.base[i].Template) })
	if err != nil {
		return err
	}
	l.metrics["index.heap_bytes_per_template"] = (heapAlloc() - before) / n
	total := time.Duration(0)
	for _, d := range adds {
		total += d
	}
	l.metrics["index.build_s.10k"] = total.Seconds()
	l.metrics["index.add_us.10k"] = us(medianDur(adds[len(adds)-1000:]))
	st := idx.Stats()
	l.metrics["index.postings_per_template"] = float64(st.Postings) / n
	l.metrics["index.distinct_keys"] = float64(st.DistinctKeys)
	removed := fx.base[:200]
	d, err := timeEach(len(removed), func(i int) error { return idx.Remove(removed[i].ID) })
	if err != nil {
		return err
	}
	l.metrics["index.remove_us"] = us(medianDur(d))
	for _, e := range removed {
		if err := idx.Add(e.ID, e.Template); err != nil {
			return err
		}
	}

	voters := matedProbes(fx, voteProbes)
	shortlists := make([][]index.Candidate, len(voters))
	votes, _ := timeEach(len(voters), func(i int) error {
		shortlists[i] = idx.Candidates(voters[i].tpl, 0)
		return nil
	})
	l.metrics["index.vote_ms.10k"] = ms(medianDur(votes[ladderWarmup:]))
	recalled := 0
	for i, sl := range shortlists {
		for _, c := range sl {
			if c.ID == voters[i].mate {
				recalled++
				break
			}
		}
	}
	l.metrics["index.shortlist_recall"] = float64(recalled) / float64(len(voters))

	// Rung 0b: the matcher over each probe's shortlist.
	probes := voters[:ladderProbes]
	matcher := &match.HoughMatcher{}
	prepared := make([][]*match.Prepared, len(probes))
	for i := range probes {
		for _, c := range shortlists[i] {
			prepared[i] = append(prepared[i], matcher.Prepare(fx.byID[c.ID]))
		}
	}
	sess := match.NewSession(matcher)
	var mem0, mem1 runtime.MemStats
	matches := 0
	runtime.ReadMemStats(&mem0)
	t0 := time.Now()
	for i, p := range probes {
		for _, g := range prepared[i] {
			if _, err := sess.MatchPrepared(g, p.tpl); err != nil {
				return err
			}
			matches++
		}
	}
	kernel := time.Since(t0)
	runtime.ReadMemStats(&mem1)
	l.metrics["match.kernel_us"] = us(kernel) / float64(matches)
	l.metrics["match.allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(matches)
	sessions := make([]*match.Session, runtime.GOMAXPROCS(0))
	for i := range sessions {
		sessions[i] = match.NewSession(matcher)
	}

	// The rungs above share one indexed store; the sharded rung gets
	// two half-size ones. They are built side by side: the standalone
	// index above was the build that is timed.
	var halves [2][]fpis.Enrollment
	for i, e := range fx.base {
		halves[i%2] = append(halves[i%2], e)
	}
	var (
		store      *gallery.Store
		halfStores [2]*gallery.Store
		buildErrs  [2]error
		wg         sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		store, buildErrs[0] = indexedStore(fx.base)
	}()
	go func() {
		defer wg.Done()
		for i, half := range halves {
			if halfStores[i], buildErrs[1] = indexedStore(half); buildErrs[1] != nil {
				return
			}
		}
	}()
	wg.Wait()
	if err := errors.Join(buildErrs[:]...); err != nil {
		return err
	}
	addr, stop, err := loopback(ctx, store)
	if err != nil {
		return err
	}
	defer stop()
	reg := obs.NewRegistry()
	cli, err := matchsvc.DialContext(ctx, addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	cli.SetMetrics(reg)
	svc, err := fpis.Dial(ctx, addr)
	if err != nil {
		return err
	}
	defer svc.Close()
	local := shard.NewLocal("ladder", store)
	router1, err := shard.New([]shard.Backend{local}, shard.Options{})
	if err != nil {
		return err
	}
	routerSet, err := shard.New([]shard.Backend{replica.NewSet("ladder", local, nil, replica.SetOptions{})}, shard.Options{})
	if err != nil {
		return err
	}

	// Two loopback servers over the half-size stores: the sharded
	// deployment's read path without its processes.
	var remotes []shard.Backend
	for i, hs := range halfStores {
		haddr, hstop, err := loopback(ctx, hs)
		if err != nil {
			return err
		}
		defer hstop()
		hcli, err := matchsvc.DialContext(ctx, haddr)
		if err != nil {
			return err
		}
		defer hcli.Close()
		remotes = append(remotes, shard.NewRemote(fmt.Sprintf("half-%d", i), hcli))
	}
	router2, err := shard.New(remotes, shard.Options{})
	if err != nil {
		return err
	}

	type rung struct {
		name string
		call func(i int) error
	}
	ladderRungs := []rung{
		{"index.vote", func(i int) error { idx.Candidates(probes[i].tpl, 0); return nil }},
		{"match.shortlist", func(i int) error { return scoreShortlist(sessions, prepared[i], probes[i].tpl) }},
		{"gallery.identify", func(i int) error {
			_, _, err := store.IdentifyDetailedContext(ctx, probes[i].tpl, topK)
			return err
		}},
		{"matchsvc.identify", func(i int) error { _, _, err := cli.IdentifyEx(ctx, probes[i].tpl, topK); return err }},
		{"fpis.identify", func(i int) error { _, err := svc.Identify(ctx, probes[i].tpl, topK); return err }},
		{"shard.router1", func(i int) error { _, _, err := router1.IdentifyDetailed(ctx, probes[i].tpl, topK); return err }},
		{"replica.set", func(i int) error { _, _, err := routerSet.IdentifyDetailed(ctx, probes[i].tpl, topK); return err }},
		{"shard.remote2", func(i int) error { _, _, err := router2.IdentifyDetailed(ctx, probes[i].tpl, topK); return err }},
	}
	// Probe by probe, every rung: drift over the run then hits all rungs
	// of a probe alike and cancels in the subtraction. Each rung is
	// called twice and the second call kept, so that every rung of a
	// probe finds the posting lists and templates it touches in cache —
	// otherwise whichever rung meets a probe first pays its misses and
	// reads as the slow layer. The collector runs between probes, not
	// inside a timed call: this process holds four galleries.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	durs := make(map[string][]time.Duration)
	for i := range probes {
		if i%8 == 0 {
			runtime.GC()
		}
		// The two leaf rungs run first; the rungs over the store follow in
		// an order that rotates with the probe, because a probe's later
		// calls run a little faster than its earlier ones whatever they
		// are, and a fixed order would book that to the layers.
		order := append([]rung(nil), ladderRungs[:2]...)
		upper := ladderRungs[2:]
		for k := range upper {
			order = append(order, upper[(i+k)%len(upper)])
		}
		for _, r := range order {
			var d time.Duration
			for pass := 0; pass < 2; pass++ {
				t0 := time.Now()
				if err := r.call(i); err != nil {
					return fmt.Errorf("ladder rung %s: %w", r.name, err)
				}
				d = time.Since(t0)
			}
			if i >= ladderWarmup {
				durs[r.name] = append(durs[r.name], d)
			}
		}
	}
	// Only matchsvc.identify used cli, so its byte histograms hold
	// identify frames alone.
	wire, err := registrySnapshot(reg)
	if err != nil {
		return err
	}
	l.metrics["matchsvc.req_bytes_identify"] = wire.hist("matchsvc_client_request_bytes", "").mean()
	l.metrics["matchsvc.resp_bytes_identify"] = wire.hist("matchsvc_client_response_bytes", "").mean()

	med := func(name string) time.Duration { return medianDur(durs[name]) }
	diff := func(a, b string) time.Duration {
		out := make([]time.Duration, len(durs[a]))
		for i := range out {
			out[i] = durs[a][i] - durs[b][i]
		}
		return medianDur(out)
	}
	l.metrics["gallery.identify_ms.10k"] = ms(med("gallery.identify"))
	l.metrics["matchsvc.identify_ms.10k"] = ms(med("matchsvc.identify"))
	l.metrics["matchsvc.wire_overhead_us"] = us(diff("matchsvc.identify", "gallery.identify"))
	l.metrics["fpis.dial_identify_ms.10k"] = ms(med("fpis.identify"))
	l.metrics["fpis.overhead_us"] = us(diff("fpis.identify", "matchsvc.identify"))
	l.metrics["shard.router1_identify_ms.10k"] = ms(med("shard.router1"))
	l.metrics["shard.router_overhead_us"] = us(diff("shard.router1", "gallery.identify"))
	l.metrics["replica.dispatch_ns"] = float64(diff("replica.set", "shard.router1"))
	l.metrics["shard.remote2_identify_ms.10k"] = ms(med("shard.remote2"))

	// One trace per probe, nested by construction: the calls ran one
	// after another, so each child is laid at its parent's start to make
	// "duration minus children" the parent's self time.
	for i := range durs["gallery.identify"] {
		l.emit(i, 0, []string{"fpis.identify", "matchsvc.identify", "gallery.identify"}, durs)
		l.emit(i, 0, []string{"replica.set", "shard.router1", "gallery.identify"}, durs)
	}
	self := selfByName(l.tr.spans)
	l.metrics["gallery.identify_self_ms.10k"] = ms(self["gallery.identify"])

	// Wire leaf costs over the same loopback connection.
	d, err = timeEach(200, func(int) error { return cli.Ping(ctx) })
	if err != nil {
		return err
	}
	l.metrics["matchsvc.ping_us"] = us(medianDur(d))
	d, err = timeEach(len(probes), func(i int) error {
		_, err := cli.Verify(ctx, probes[i].mate, probes[i].tpl)
		return err
	})
	if err != nil {
		return err
	}
	l.metrics["matchsvc.verify_us"] = us(medianDur(d[ladderWarmup:]))
	return nil
}

// emit lays one probe's chain of rungs out as nested spans, outermost
// first; the innermost (the store) gets the vote and shortlist rungs as
// its children, end to end.
func (l *ladder) emit(i, parent int, chain []string, durs map[string][]time.Duration) {
	start := l.clock
	for _, name := range chain {
		parent = l.tr.add(i, parent, name, start, start+int64(durs[name][i]))
	}
	at := start
	for _, name := range []string{"index.vote", "match.shortlist"} {
		l.tr.add(i, parent, name, at, at+int64(durs[name][i]))
		at += int64(durs[name][i])
	}
	l.clock = start + int64(durs[chain[0]][i])
}

// registrySnapshot reads an in-process registry through the same
// document and parser the servers' /metrics.json goes through.
func registrySnapshot(reg *obs.Registry) (snapshot, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return snapshot{}, err
	}
	return parseMetricsJSON(buf.Bytes())
}

// walMicro times the write-ahead log by itself, over a store with no
// index so that the log's cost is not buried under index.Add.
func (l *ladder) walMicro(fx *fixture, dir string) error {
	reg := obs.NewRegistry()
	ws, err := wal.Open(filepath.Join(dir, "ladder-wal"), gallery.New(nil), wal.Options{Metrics: reg})
	if err != nil {
		return err
	}
	defer ws.Close()
	const singles = 100
	d, err := timeEach(singles, func(i int) error {
		e := fx.base[i]
		return ws.Enroll(e.ID, e.DeviceID, e.Template)
	})
	if err != nil {
		return err
	}
	l.metrics["wal.enroll_sync_us"] = us(medianDur(d))
	snap, err := registrySnapshot(reg)
	if err != nil {
		return err
	}
	fsync := snap.hist("wal_fsync_latency_ns", "")
	l.metrics["wal.fsyncs_per_ack"] = fsync.Count / singles
	l.metrics["wal.fsync_p50_us"] = fsync.quantile(0.5) / 1e3

	export := func(items []fpis.Enrollment) []gallery.Export {
		out := make([]gallery.Export, len(items))
		for i, e := range items {
			out[i] = gallery.Export{ID: e.ID, DeviceID: e.DeviceID, Template: e.Template}
		}
		return out
	}
	const batch, filled = 64, 5000
	var batches []time.Duration
	for lo := singles; lo < filled; lo += batch {
		hi := min(lo+batch, filled)
		t0 := time.Now()
		if err := ws.EnrollBatch(export(fx.base[lo:hi])); err != nil {
			return err
		}
		if hi-lo == batch {
			batches = append(batches, time.Since(t0))
		}
	}
	l.metrics["wal.batch64_us_per_item"] = us(medianDur(batches)) / batch
	logBytes, err := ws.LogSize()
	if err != nil {
		return err
	}
	payload := 0
	for _, e := range fx.base[:filled] {
		b, err := minutiae.Marshal(e.Template)
		if err != nil {
			return err
		}
		payload += len(b)
	}
	l.metrics["wal.write_amp"] = float64(logBytes) / float64(payload)
	t0 := time.Now()
	if err := ws.Compact(); err != nil {
		return err
	}
	l.metrics["wal.compact_ms.5k"] = ms(time.Since(t0))

	// Recovery: a log of 1000 records and no snapshot, reopened.
	rdir := filepath.Join(dir, "ladder-wal-recover")
	rs, err := wal.Open(rdir, gallery.New(nil), wal.Options{})
	if err != nil {
		return err
	}
	if err := rs.EnrollBatch(export(fx.base[:1000])); err != nil {
		rs.Close()
		return err
	}
	if err := rs.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	rs, err = wal.Open(rdir, gallery.New(nil), wal.Options{})
	if err != nil {
		return err
	}
	l.metrics["wal.recover_ms_per_1k"] = ms(time.Since(t0))
	if got := rs.Recovery().Replayed; got != 1000 {
		rs.Close()
		return fmt.Errorf("wal recovery replayed %d records, want 1000", got)
	}
	return rs.Close()
}
