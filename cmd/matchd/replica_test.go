package main

// Replica smoke test at the process level: a WAL-backed primary matchd
// and two matchd read replicas (-replica-of) over real TCP. Replicas
// bootstrap before serving, stream the primary's tail continuously,
// refuse writes, expose their LSN lag on /metrics, and keep answering
// identifies bit-identically to the primary — even after the primary
// itself goes away.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fpinterop/internal/matchsvc"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// startReplicaMatchd starts a helper-mode indexed matchd replica with a
// metrics listener, returning the serve and metrics addresses.
func startReplicaMatchd(t *testing.T, primary string) (addr, metricsAddr string) {
	t.Helper()
	_, addr, maddr := startMatchdWithMetrics(t,
		"-addr", "127.0.0.1:0", "-index",
		"-replica-of", primary,
		"-replica-sync-interval", "5ms",
		"-metrics-addr", "127.0.0.1:0")
	return addr, maddr
}

func TestReplicaSmokeProcessLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level smoke test")
	}
	const n = 40
	dev, _ := sensor.ProfileByID("D0")
	cohort := population.NewCohort(rng.New(20130808), population.CohortOptions{Size: n})
	normalize := func(tpl *minutiae.Template) *minutiae.Template {
		data, err := minutiae.Marshal(tpl)
		if err != nil {
			t.Fatal(err)
		}
		out, err := minutiae.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ids := make([]string, n)
	tpls := make([]*minutiae.Template, n)
	probes := make([]*minutiae.Template, 0, 8)
	for i, subj := range cohort.Subjects {
		imp, err := dev.CaptureSubject(subj, 0, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = fmt.Sprintf("subject-%04d", i)
		tpls[i] = normalize(imp.Template)
		if len(probes) < 8 {
			p, err := dev.CaptureSubject(subj, 1, sensor.CaptureOptions{})
			if err != nil {
				t.Fatal(err)
			}
			probes = append(probes, normalize(p.Template))
		}
	}

	walDir := filepath.Join(t.TempDir(), "wal")
	pcmd, paddr := startMatchd(t, "-addr", "127.0.0.1:0", "-index", "-wal-dir", walDir)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	pcli, err := matchsvc.DialContext(ctx, paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pcli.Close()

	// Half the population enrolled before the replicas exist: the
	// bootstrap transfer, not the tail, must deliver these.
	for i := 0; i < n/2; i++ {
		if err := pcli.EnrollBatch(ctx, []matchsvc.Enrollment{{ID: ids[i], DeviceID: dev.ID, Template: tpls[i]}}); err != nil {
			t.Fatal(err)
		}
	}

	r1addr, r1metrics := startReplicaMatchd(t, paddr)
	r2addr, _ := startReplicaMatchd(t, paddr)
	r1, err := matchsvc.DialContext(ctx, r1addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := matchsvc.DialContext(ctx, r2addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	// A replica serves the bootstrapped population the moment it
	// listens — the initial sync gates serving.
	for _, cli := range []*matchsvc.Client{r1, r2} {
		if !enrolled(t, ctx, cli, ids[0], tpls[0]) {
			t.Fatal("replica listening before its bootstrap sync delivered the gallery")
		}
	}

	// The second half arrives while the replicas are live: the tail
	// stream must carry it over within the sync cadence.
	for i := n / 2; i < n; i++ {
		if err := pcli.EnrollBatch(ctx, []matchsvc.Enrollment{{ID: ids[i], DeviceID: dev.ID, Template: tpls[i]}}); err != nil {
			t.Fatal(err)
		}
	}
	waitHas := func(cli *matchsvc.Client, id string) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if enrolled(t, ctx, cli, id, tpls[0]) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica never caught up to %q", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitHas(r1, ids[n-1])
	waitHas(r2, ids[n-1])

	// Writes are refused with a remote error; state is untouched.
	if err := r1.EnrollBatch(ctx, []matchsvc.Enrollment{{ID: "intruder", DeviceID: dev.ID, Template: tpls[0]}}); !errors.Is(err, matchsvc.ErrReadOnly) {
		t.Fatalf("replica accepted a write: %v", err)
	}
	if enrolled(t, ctx, r1, "intruder", tpls[0]) {
		t.Fatal("refused write still mutated the replica")
	}
	// A wire batch is one EnrollBatch call on the served backend; the
	// read-only view must refuse that too, not promote the store's own.
	before, err := r1.Len(ctx)
	if err != nil {
		t.Fatal(err)
	}
	batch := []matchsvc.Enrollment{{ID: "intruder-a", DeviceID: dev.ID, Template: tpls[0]}, {ID: "intruder-b", DeviceID: dev.ID, Template: tpls[1]}}
	if err := r1.EnrollBatch(ctx, batch); !errors.Is(err, matchsvc.ErrReadOnly) {
		t.Fatalf("replica accepted a batch write: %v", err)
	}
	if after, err := r1.Len(ctx); err != nil || after != before {
		t.Fatalf("refused batch changed the replica: %d → %d enrollments (%v)", before, after, err)
	}

	// Identify on each replica is bit-identical to the primary's answer
	// over the same recovered population.
	for pi, probe := range probes {
		want, _, err := pcli.IdentifyEx(ctx, probe, 3)
		if err != nil {
			t.Fatal(err)
		}
		for ri, cli := range []*matchsvc.Client{r1, r2} {
			got, _, err := cli.IdentifyEx(ctx, probe, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("replica %d probe %d: %d candidates vs %d", ri, pi, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
					t.Fatalf("replica %d probe %d rank %d: (%q, %v) vs primary (%q, %v)",
						ri, pi, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
				}
			}
		}
	}

	// The staleness bound is observable: the lag gauge is published on
	// the replica's /metrics and reads 0 once caught up.
	resp, err := http.Get("http://" + r1metrics + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "replica_lsn_lag") {
		t.Fatalf("/metrics missing replica_lsn_lag:\n%s", text)
	}
	if !strings.Contains(text, `replica_lsn_lag{shard="local"} 0`) {
		t.Fatalf("caught-up replica reports nonzero lag:\n%s", text)
	}
	if !strings.Contains(text, "replica_records_applied_total") {
		t.Fatalf("/metrics missing replica_records_applied_total:\n%s", text)
	}
	// The first half came in one snapshot restore, and the tail carried
	// only the second.
	for _, want := range []string{
		`replica_snapshot_restores_total{shard="local"} 1`,
		fmt.Sprintf(`replica_records_applied_total{shard="local"} %d`, n-n/2),
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("/metrics lacks %q:\n%s", want, text)
		}
	}
	// The restore installed the index the primary shipped.
	if strings.Contains(text, "replica_index_rebuilds_total{") {
		t.Fatalf("the replica rebuilt the index the primary shipped:\n%s", text)
	}

	// Reads outlive the primary: kill it and the replicas keep
	// answering from local state.
	pcmd.Process.Kill()
	pcmd.Wait()
	got, _, err := r2.IdentifyEx(ctx, probes[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("replica lost its gallery with the primary")
	}
}

// TestReplicaFlagValidation pins the replica flag applicability rules.
func TestReplicaFlagValidation(t *testing.T) {
	sink := sinkAddr(t)
	cases := [][]string{
		{"-replica-of", sink, "-local-shards", "2"},
		{"-replica-of", sink, "-shards", sink},
		{"-replica-of", sink, "-wal-dir", "x"},
		{"-replica-of", sink, "-preload", "5"},
		{"-replica-sync-interval", "50ms"},
		{"-replica-sync-interval", "-1s", "-replica-of", sink},
		{"-replicas", sink},
		{"-shards", sink + "," + sink, "-replicas", sink},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
