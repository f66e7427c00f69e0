package main

// WAL smoke test: a real matchd process (this test binary re-executed
// in helper mode) serving with -wal-dir is SIGKILLed mid-enrollment,
// restarted over the same directory, and must come back with every
// acknowledged enrollment intact and rank-1 identification identical
// to a reference store over the recovered population. This is the
// process-level counterpart of internal/wal's in-process crash tests:
// nothing here gets a chance to flush politely.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

const helperEnv = "MATCHD_TEST_HELPER"

// TestMain turns the test binary into matchd when re-executed in
// helper mode, so the smoke test gets a genuine separate process to
// kill without shelling out to the go tool.
func TestMain(m *testing.M) {
	if args := os.Getenv(helperEnv); args != "" {
		if err := run(strings.Split(args, "\x1f")); err != nil {
			fmt.Fprintln(os.Stderr, "matchd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var listenRe = regexp.MustCompile(`msg=listening addr=(\S+)`)

// spawnMatchd launches a helper-mode matchd and returns the running
// command plus the first capture of each regexp in want, in order, as
// they appear in its startup log. The process is killed and reaped
// when the test ends — whatever the test did to it meanwhile — so no
// test can leave a child behind.
func spawnMatchd(t *testing.T, args []string, want ...*regexp.Regexp) (*exec.Cmd, []string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), helperEnv+"="+strings.Join(args, "\x1f"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	type capture struct {
		i int
		s string
	}
	found := make(chan capture, len(want)) // one send per regexp at most
	logged := make(chan struct{})
	go func() {
		defer close(logged)
		seen := make([]bool, len(want))
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("matchd[%d]: %s", cmd.Process.Pid, line)
			for i, re := range want {
				if m := re.FindStringSubmatch(line); m != nil && !seen[i] {
					seen[i] = true
					found <- capture{i, m[1]}
				}
			}
		}
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-logged // the pipe must be drained before Wait closes it
		cmd.Wait()
	})
	out := make([]string, len(want))
	deadline := time.After(30 * time.Second)
	for n := 0; n < len(want); n++ {
		select {
		case c := <-found:
			out[c.i] = c.s
		case <-deadline:
			t.Fatalf("matchd helper did not report every address: got %q", out)
		}
	}
	return cmd, out
}

// startMatchd launches a helper-mode matchd and returns its bound
// address (parsed from the startup log) and the running command.
func startMatchd(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd, addrs := spawnMatchd(t, args, listenRe)
	return cmd, addrs[0]
}

func smokeSubjects(t *testing.T) int {
	n := 150
	if v := os.Getenv("WALSMOKE_SUBJECTS"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			t.Fatalf("bad WALSMOKE_SUBJECTS=%q", v)
		}
		n = parsed
	}
	return n
}

func TestKillNineRecoversAcknowledgedEnrollments(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level smoke test")
	}
	n := smokeSubjects(t)
	dev, _ := sensor.ProfileByID("D0")
	cohort := population.NewCohort(rng.New(20130807), population.CohortOptions{Size: n})
	// Codec-normalized like the fpis conformance fixtures: enrollment
	// and probes cross the wire codec, so only normalized templates make
	// the local reference store's scores bit-comparable to the server's.
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
	probes := make([]*minutiae.Template, 0, 16)
	for i, subj := range cohort.Subjects {
		imp, err := dev.CaptureSubject(subj, 0, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = fmt.Sprintf("subject-%04d", i)
		tpls[i] = normalize(imp.Template)
		if len(probes) < 16 {
			p, err := dev.CaptureSubject(subj, 1, sensor.CaptureOptions{})
			if err != nil {
				t.Fatal(err)
			}
			probes = append(probes, normalize(p.Template))
		}
	}

	walDir := filepath.Join(t.TempDir(), "wal")
	cmd, addr := startMatchd(t, "-addr", "127.0.0.1:0", "-wal-dir", walDir, "-compact-every", "64")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cli, err := matchsvc.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}

	// Stream enrollments and SIGKILL the server from another goroutine
	// once a third of them are acknowledged — the ack stream is cut
	// mid-flight, exactly the crash the WAL exists for.
	var (
		mu    sync.Mutex
		acked []int
	)
	killAt := n / 3
	killed := make(chan struct{})
	var killOnce sync.Once
	for i := range ids {
		err := cli.Enroll(ctx, ids[i], dev.ID, tpls[i])
		if err != nil {
			break // the kill landed; anything unacknowledged stays unclaimed
		}
		mu.Lock()
		acked = append(acked, i)
		count := len(acked)
		mu.Unlock()
		if count == killAt {
			go killOnce.Do(func() {
				cmd.Process.Kill() // SIGKILL: no handler, no flush
				close(killed)
			})
		}
	}
	<-killed
	cmd.Wait()
	cli.Close()
	if len(acked) < killAt {
		t.Fatalf("only %d enrollments acknowledged before the kill; wanted at least %d", len(acked), killAt)
	}
	t.Logf("killed matchd with %d of %d enrollments acknowledged", len(acked), n)

	// Restart over the same WAL directory: recovery must surface every
	// acknowledged enrollment.
	cmd2, addr2 := startMatchd(t, "-addr", "127.0.0.1:0", "-wal-dir", walDir, "-compact-every", "64")
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	cli2, err := matchsvc.DialContext(ctx, addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	// Audit the recovered set through the contract itself: Verify says
	// present or ErrNotFound for every ID the test ever sent, and Len
	// equal to the number found present means the store holds nothing
	// else. The population may legitimately include one extra subject
	// (logged durably, ack lost to the kill). Rank-1 identification is
	// then held bit-identical to a reference store over that same set.
	wasAcked := make(map[int]bool, len(acked))
	for _, i := range acked {
		wasAcked[i] = true
	}
	ref := gallery.New(nil)
	recovered := 0
	for i := range ids {
		if !enrolled(t, ctx, cli2, ids[i], tpls[i]) {
			if wasAcked[i] {
				t.Fatalf("acknowledged enrollment %q lost across the crash", ids[i])
			}
			continue
		}
		if err := ref.Enroll(ids[i], dev.ID, tpls[i]); err != nil {
			t.Fatal(err)
		}
		recovered++
	}
	if recovered > len(acked)+1 {
		t.Fatalf("recovered %d subjects; acknowledged %d (at most one in-flight extra allowed)",
			recovered, len(acked))
	}
	if total, err := cli2.Len(ctx); err != nil {
		t.Fatal(err)
	} else if total != recovered {
		t.Fatalf("recovered store holds %d subjects, %d of them known: it recovered subjects nobody enrolled", total, recovered)
	}
	for pi, probe := range probes {
		got, _, err := cli2.IdentifyEx(ctx, probe, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.IdentifyContext(ctx, probe, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("probe %d: %d candidates vs reference %d", pi, len(got), len(want))
		}
		if len(got) > 0 && (got[0].ID != want[0].ID || got[0].Score != want[0].Score) {
			t.Fatalf("probe %d rank-1 diverged after recovery: (%q, %v) vs reference (%q, %v)",
				pi, got[0].ID, got[0].Score, want[0].ID, want[0].Score)
		}
	}
}

// enrolled reports whether the server holds id, asked the only way the
// contract allows: a Verify that answers (any score — the probe need
// not be a mate) means present, ErrNotFound means absent, anything else
// fails the test.
func enrolled(t *testing.T, ctx context.Context, cli *matchsvc.Client, id string, probe *minutiae.Template) bool {
	t.Helper()
	_, err := cli.Verify(ctx, id, probe)
	if err != nil && !errors.Is(err, gallery.ErrNotFound) {
		t.Fatal(err)
	}
	return err == nil
}

// TestWALFlagValidation pins the flag applicability rules without
// starting a server.
func TestWALFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-compact-every", "8"},
		{"-wal-dir", "x", "-shards", sinkAddr(t)},
		{"-compact-every", "-1", "-wal-dir", "x"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
