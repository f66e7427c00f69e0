package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"fpinterop/internal/obs"
)

// metricDef names one reported metric. The end-to-end list and its
// bounds are repeated in BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	name string
	unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"identify_p50_ms", "ms"},
	{"rank1_rate", "ratio"},
	{"rss_kb_per_enrollment", "KB"},
}

var perLayerMetrics = []metricDef{
	{"match.kernel_us", "us"}, {"match.prepare_us", "us"}, {"match.allocs_per_op", "count"},
	{"index.vote_ms.1k", "ms"}, {"index.vote_ms.10k", "ms"}, {"index.add_us.10k", "us"},
	{"index.remove_us", "us"}, {"index.build_s.10k", "s"}, {"index.postings_per_template", "count"},
	{"index.distinct_keys", "count"}, {"index.heap_bytes_per_template", "B"}, {"index.shortlist_recall", "ratio"},
	{"gallery.identify_ms.1k", "ms"}, {"gallery.identify_ms.10k", "ms"}, {"gallery.identify_self_ms.10k", "ms"},
	{"gallery.scan_ms.1k", "ms"}, {"gallery.verify_us", "us"}, {"gallery.enroll_us", "us"},
	{"gallery.scanned_per_identify", "count"}, {"gallery.index_fallback_ratio", "ratio"},
	{"minutiae.marshal_us", "us"}, {"minutiae.unmarshal_us", "us"}, {"minutiae.bytes_per_template", "B"},
	{"wal.enroll_sync_us", "us"}, {"wal.batch64_us_per_item", "us"}, {"wal.recover_ms_per_1k", "ms"},
	{"wal.compact_ms.5k", "ms"}, {"wal.write_amp", "ratio"}, {"wal.fsyncs_per_ack", "count"},
	{"wal.fsync_p50_us", "us"}, {"wal.compactions", "count"},
	{"matchsvc.ping_us", "us"}, {"matchsvc.verify_us", "us"}, {"matchsvc.identify_ms.10k", "ms"},
	{"matchsvc.wire_overhead_us", "us"}, {"matchsvc.req_bytes_identify", "B"}, {"matchsvc.resp_bytes_identify", "B"},
	{"matchsvc.server_identify_p50_ms", "ms"}, {"matchsvc.client_minus_server_ms", "ms"},
	{"matchsvc.retries", "count"}, {"matchsvc.redials", "count"},
	{"fpis.dial_identify_ms.10k", "ms"}, {"fpis.overhead_us", "us"},
	{"shard.router1_identify_ms.10k", "ms"}, {"shard.router_overhead_us", "us"}, {"shard.remote2_identify_ms.10k", "ms"},
	{"shard.scatter_fanout", "count"}, {"shard.hedges_fired", "count"}, {"shard.hedge_wasted_ratio", "ratio"},
	{"shard.partial_ratio", "ratio"},
	{"replica.dispatch_ns", "ns"}, {"replica.read_skew", "ratio"}, {"replica.lag_records_max", "count"},
	{"replica.failovers", "count"}, {"replica.bootstrap_s", "s"},
	{"matchd.cpu_ms_per_identify", "ms"}, {"matchd.cpu_ms_per_enroll", "ms"}, {"matchd.start_to_listen_s", "s"},
	{"matchd.restart_s", "s"}, {"matchd.rss_mb", "MB"},
	{"loadgen.lag_p99_ms", "ms"}, {"loadgen.identify_p95_ms", "ms"}, {"loadgen.identify_p99_ms", "ms"},
	{"loadgen.identify_max_ms", "ms"}, {"loadgen.identify_tput_ops_s", "1/s"}, {"loadgen.verify_p50_ms", "ms"},
	{"loadgen.verify_p95_ms", "ms"},
	{"loadgen.verify_tput_ops_s", "1/s"}, {"loadgen.enroll_p50_ms", "ms"}, {"loadgen.enroll_p95_ms", "ms"},
	{"loadgen.cpu_share", "ratio"},
}

// byWindow groups the latencies of the answered requests of one kind.
func byWindow(results []opResult, kind opKind) [][]float64 {
	var out [][]float64
	for i := range results {
		r := &results[i]
		if r.kind != kind || r.failed() || r.background {
			continue
		}
		for len(out) <= r.window {
			out = append(out, nil)
		}
		out[r.window] = append(out[r.window], r.latencyMS())
	}
	return out
}

// throughput is answered requests per second in each window.
func throughput(pr phaseResult) windowStat {
	counts := make([]float64, len(pr.lengths))
	for i := range pr.results {
		if r := &pr.results[i]; !r.failed() {
			counts[r.window]++
		}
	}
	for w, d := range pr.lengths {
		counts[w] /= d.Seconds()
	}
	return medianOfWindows(counts)
}

// summarize prints every phase's sent/succeeded/failed counts and turns
// the phases into the end-to-end metrics.
func summarize(res *runResult, chk *checker, phases []phaseResult, out io.Writer) {
	var openOps, allIdentifies []opResult
	for _, pr := range phases {
		var sent, failed [len(opNames)]int
		for i := range pr.results {
			r := &pr.results[i]
			sent[r.kind]++
			if r.failed() {
				failed[r.kind]++
				if r.err != nil {
					res.note("%s: %s failed: %v", pr.spec.name, r.kind, r.err)
				}
			}
		}
		loop := "closed loop"
		if len(pr.spec.streams) > 0 {
			loop = "open loop"
			openOps = append(openOps, pr.results...)
		}
		for k, n := range sent {
			if n == 0 {
				continue
			}
			fmt.Fprintf(out, "  phase %-10s %-11s %-8s sent %6d  succeeded %6d  failed %d\n",
				pr.spec.name, loop, opKind(k), n, n-failed[k], failed[k])
			res.attempted += n
			res.failed += failed[k]
		}
		switch {
		case len(pr.spec.streams) > 0:
		case pr.spec.closed == opIdentify:
			res.perLayer["loadgen.identify_tput_ops_s"] = throughput(pr).Value
		case pr.spec.closed == opVerify:
			lat := byWindow(pr.results, opVerify)
			res.perLayer["loadgen.verify_p50_ms"] = windowPercentile(lat, 0.50).Value
			res.perLayer["loadgen.verify_p95_ms"] = windowPercentile(lat, 0.95).Value
			res.perLayer["loadgen.verify_tput_ops_s"] = throughput(pr).Value
		}
		for i := range pr.results {
			if pr.results[i].kind == opIdentify {
				allIdentifies = append(allIdentifies, pr.results[i])
			}
		}
	}
	identify, enroll := byWindow(openOps, opIdentify), byWindow(openOps, opEnroll)
	res.endToEnd["identify_p50_ms"] = windowPercentile(identify, 0.50)
	res.perLayer["loadgen.identify_p95_ms"] = windowPercentile(identify, 0.95).Value
	res.perLayer["loadgen.enroll_p50_ms"] = windowPercentile(enroll, 0.50).Value
	res.perLayer["loadgen.enroll_p95_ms"] = windowPercentile(enroll, 0.95).Value
	hits, mated := chk.rank1(allIdentifies)
	res.endToEnd["rank1_rate"] = windowStat{Value: float64(hits) / float64(mated)}
	fmt.Fprintf(out, "  rank 1: %d of %d mated identifies\n", hits, mated)
}

// sampleReplicaLag polls every replica's replica_lsn_lag gauge until the
// returned function is called, which stops it and gives the worst value
// seen.
func sampleReplicaLag(d *deployment) (stop func() int64) {
	var (
		worst int64
		wg    sync.WaitGroup
		quit  = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				for r := range d.replicaOf {
					if s, err := fetchMetrics(r.metricsAddr); err == nil {
						worst = max(worst, int64(s.value("replica_lsn_lag", "")))
					}
				}
			}
		}
	}()
	return func() int64 {
		close(quit)
		wg.Wait()
		return worst
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// labelValue extracts one label's value from a series key such as
// name{set=a,member=b}.
func labelValue(key, label string) string {
	i := strings.Index(key, label+"=")
	if i < 0 {
		return ""
	}
	rest := key[i+len(label)+1:]
	if j := strings.IndexAny(rest, ",}"); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// readSkew is the largest max/min ratio of reads per member over the
// replica sets of one process: 1 is a perfectly even balance.
func readSkew(s snapshot) float64 {
	lo, hi := map[string]float64{}, map[string]float64{}
	for k, v := range s.values {
		if !seriesMatches(k, "replica_reads_total", "") {
			continue
		}
		set := labelValue(k, "set")
		if cur, ok := lo[set]; !ok || v < cur {
			lo[set] = v
		}
		hi[set] = math.Max(hi[set], v)
	}
	worst := 0.0
	for set := range hi {
		worst = math.Max(worst, ratio(hi[set], lo[set]))
	}
	return worst
}

// layerMetrics turns the observations that bracket each traced phase
// into the per-layer numbers only the running servers can give, and
// records every request as spans.
func layerMetrics(res *runResult, dep *deployment, phases []phaseResult, obsv []observation, clientReg *obs.Registry, tr *tracer) error {
	first, last := obsv[0], obsv[len(obsv)-1]
	all := fleet(first, last)
	client, err := registrySnapshot(clientReg)
	if err != nil {
		return err
	}
	m := res.perLayer
	m["wal.compactions"] = all.value("wal_compactions_total", "")
	m["matchsvc.retries"] = all.value("matchsvc_client_retries_total", "") + client.value("matchsvc_client_retries_total", "")
	m["matchsvc.redials"] = all.value("matchsvc_client_redials_total", "") + client.value("matchsvc_client_redials_total", "")
	m["shard.scatter_fanout"] = all.hist("shard_scatter_fanout", "").mean()
	m["shard.hedges_fired"] = all.value("shard_hedges_fired_total", "")
	m["shard.hedge_wasted_ratio"] = ratio(all.value("shard_hedges_wasted_total", ""), m["shard.hedges_fired"])
	m["shard.partial_ratio"] = ratio(all.value("shard_partial_searches_total", ""), all.value("shard_searches_total", ""))
	m["replica.read_skew"] = readSkew(one(first, last, dep.front.name))
	m["replica.failovers"] = all.value("replica_read_failovers_total", "")
	m["loadgen.cpu_share"] = ratio(last.selfCPU-first.selfCPU, last.at.Sub(first.at).Seconds())

	for i, pr := range phases {
		before, after := obsv[i], obsv[i+1]
		switch {
		case len(pr.spec.streams) == 0 && pr.spec.closed == opIdentify:
			// Identify alone is running: server CPU and gallery counters
			// divide cleanly by the number of searches.
			var served []float64
			for j := range pr.results {
				if r := &pr.results[j]; !r.failed() {
					served = append(served, r.latencyMS())
				}
			}
			leaves := fleet(before, after)
			front := one(before, after, dep.front.name).hist("matchsvc_server_latency_ns", "op=identify")
			m["matchd.cpu_ms_per_identify"] = ratio((after.cpu-before.cpu)*1e3, float64(len(served)))
			m["gallery.scanned_per_identify"] = ratio(leaves.value("gallery_scanned_total", ""), leaves.value("gallery_identify_total", ""))
			m["gallery.index_fallback_ratio"] = ratio(leaves.value("gallery_index_fallback_total", ""), leaves.value("gallery_identify_total", ""))
			m["matchsvc.server_identify_p50_ms"] = front.quantile(0.5) / 1e6
			m["matchsvc.client_minus_server_ms"] = mean(served) - front.mean()/1e6
		case i == 0:
			var lag, lat []float64
			for j := range pr.results {
				if r := &pr.results[j]; r.kind == opIdentify && !r.failed() {
					lag = append(lag, float64(r.sent-r.due)/float64(time.Millisecond))
					lat = append(lat, r.latencyMS())
				}
			}
			m["loadgen.lag_p99_ms"] = percentile(lag, 0.99)
			m["loadgen.identify_p99_ms"] = percentile(lat, 0.99)
			m["loadgen.identify_max_ms"] = percentile(lat, 1)
		}
		// Each request is a root span from its due time with the call
		// into fpis as its child; the root's self time is how late the
		// generator sent it.
		for j := range pr.results {
			r := &pr.results[j]
			traceID := 1_000_000*(i+1) + j
			root := tr.add(traceID, 0, "loadgen."+r.kind.String(), int64(r.due), int64(r.done))
			tr.add(traceID, root, "fpis."+r.kind.String(), int64(r.sent), int64(r.done))
		}
	}
	return nil
}
