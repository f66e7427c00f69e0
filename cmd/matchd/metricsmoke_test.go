package main

// Metrics smoke test: a real matchd process serving sharded, durable
// traffic with -metrics-addr set must expose populated metrics — per-op
// request latency, per-shard health, WAL fsync detail — plus a healthy
// /healthz, a parseable /metrics.json, and an /admin/stats document
// that matches the topology it is actually running.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"fpinterop/internal/matchsvc"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

var metricsRe = regexp.MustCompile(`msg="metrics listening" addr=(\S+)`)

// startMatchdWithMetrics launches a helper-mode matchd and returns the
// command plus both bound addresses: the match port and the admin port.
func startMatchdWithMetrics(t *testing.T, args ...string) (*exec.Cmd, string, string) {
	t.Helper()
	cmd, addrs := spawnMatchd(t, args, listenRe, metricsRe)
	return cmd, addrs[0], addrs[1]
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

func TestMetricsSurfaceServesPopulatedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level smoke test")
	}
	walDir := filepath.Join(t.TempDir(), "wal")
	_, addr, maddr := startMatchdWithMetrics(t,
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		"-local-shards", "2", "-wal-dir", walDir)

	// Real traffic: enrollments spread across both shards by consistent
	// hashing, identifications scatter over both.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cli, err := matchsvc.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	dev, _ := sensor.ProfileByID("D0")
	cohort := population.NewCohort(rng.New(20130808), population.CohortOptions{Size: 12})
	probes := make([]*minutiae.Template, 0, 3)
	for i, subj := range cohort.Subjects {
		imp, err := dev.CaptureSubject(subj, 0, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.EnrollBatch(ctx, []matchsvc.Enrollment{{ID: fmt.Sprintf("subject-%04d", i), DeviceID: dev.ID, Template: imp.Template}}); err != nil {
			t.Fatal(err)
		}
		if len(probes) < 3 {
			p, err := dev.CaptureSubject(subj, 1, sensor.CaptureOptions{})
			if err != nil {
				t.Fatal(err)
			}
			probes = append(probes, p.Template)
		}
	}
	for _, probe := range probes {
		_, st, err := cli.IdentifyEx(ctx, probe, 3)
		if err != nil {
			t.Fatal(err)
		}
		// The reply's coverage tail, from a real process: both local
		// shards searched, nothing missed.
		if st.ShardsQueried != 2 || st.Partial {
			t.Fatalf("identify coverage over the wire: %+v, want 2 shards queried, not partial", st)
		}
	}

	// OpStats over the wire from a real durable sharded process.
	st, err := cli.ServiceStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Enrollments != 12 || st.Shards != 2 {
		t.Fatalf("ServiceStats = %+v, want 12 enrollments on 2 shards", st)
	}
	if st.WAL == nil || st.WAL.LogBytes <= 0 {
		t.Fatalf("ServiceStats.WAL = %+v, want live log bytes", st.WAL)
	}

	if got := httpGet(t, "http://"+maddr+"/healthz"); strings.TrimSpace(got) != "ok" {
		t.Fatalf("/healthz = %q", got)
	}

	body := httpGet(t, "http://"+maddr+"/metrics")
	// Families every layer must have populated after the traffic above:
	// per-op server latency, per-shard identify latency and health,
	// gallery search counters, WAL append+fsync detail.
	for _, re := range []string{
		`matchsvc_server_requests_total\{op="enroll_batch"\} 12`,
		`matchsvc_server_requests_total\{op="identify_ex"\} 3`,
		`matchsvc_server_latency_ns_count\{op="enroll_batch"\} 12`,
		`matchsvc_server_latency_ns_count\{op="identify_ex"\} 3`,
		`matchsvc_server_connections [1-9]`,
		`shard_degraded\{shard="shard-0"\} 0`,
		`shard_degraded\{shard="shard-1"\} 0`,
		`shard_identify_latency_ns_count\{shard="shard-0"\} 3`,
		`shard_identify_latency_ns_count\{shard="shard-1"\} 3`,
		`shard_searches_total 3`,
		`gallery_identify_total\{shard="shard-[01]"\} 3`,
		`gallery_enrollments\{shard="shard-[01]"\} [1-9]`,
		`wal_append_latency_ns_count\{shard="shard-[01]"\} [1-9]`,
		`wal_fsync_latency_ns_count\{shard="shard-[01]"\} [1-9]`,
		`wal_log_bytes\{shard="shard-[01]"\} [1-9]`,
	} {
		if !regexp.MustCompile(re).MatchString(body) {
			t.Errorf("/metrics missing %s", re)
		}
	}
	if t.Failed() {
		t.Fatalf("full exposition:\n%s", body)
	}

	// The JSON exposition must parse and carry the same families.
	var flat map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+maddr+"/metrics.json")), &flat); err != nil {
		t.Fatalf("/metrics.json did not parse: %v", err)
	}
	if _, ok := flat[`matchsvc_server_requests_total{op=enroll_batch}`]; !ok {
		keys := make([]string, 0, len(flat))
		for k := range flat {
			keys = append(keys, k)
		}
		t.Fatalf("/metrics.json missing enroll counter; keys: %v", keys)
	}

	// /admin/stats reflects the actual topology.
	var view struct {
		Stats  matchsvc.ServiceStats `json:"stats"`
		Shards []struct {
			Name        string `json:"name"`
			Enrollments int    `json:"enrollments"`
			Degraded    bool   `json:"degraded"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+maddr+"/admin/stats")), &view); err != nil {
		t.Fatal(err)
	}
	if view.Stats.Shards != 2 || view.Stats.Enrollments != 12 {
		t.Fatalf("/admin/stats stats = %+v", view.Stats)
	}
	if view.Stats.WAL == nil || view.Stats.WAL.LogBytes <= 0 {
		t.Fatalf("/admin/stats WAL = %+v", view.Stats.WAL)
	}
	if len(view.Shards) != 2 {
		t.Fatalf("/admin/stats shards = %+v", view.Shards)
	}
	total := 0
	for _, sh := range view.Shards {
		if sh.Degraded {
			t.Fatalf("shard %s reported degraded", sh.Name)
		}
		total += sh.Enrollments
	}
	if total != 12 {
		t.Fatalf("per-shard enrollments sum to %d, want 12", total)
	}

	// pprof is mounted on the explicit mux.
	if got := httpGet(t, "http://"+maddr+"/debug/pprof/cmdline"); got == "" {
		t.Fatal("/debug/pprof/cmdline returned nothing")
	}
}
