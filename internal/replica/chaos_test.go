package replica

// Chaos acceptance test for the replica subsystem: one WAL-backed
// primary and two followers serve a replica set over real TCP; a
// replica process is killed mid-identify under concurrent write load.
// The bar is the PR's acceptance criteria: zero acked writes lost,
// every read answered, and once the survivors catch up, identify
// rankings bit-identical to a single gallery.Store holding the same
// enrollments.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/matchsvc"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/shard"
	"fpinterop/internal/wal"
)

// replicaNode is one follower: a local gallery kept in sync from the
// primary, served read-only over its own listener.
type replicaNode struct {
	store  *gallery.Store
	f      *Follower
	srv    *matchsvc.Server
	addr   string
	cancel context.CancelFunc
	done   chan struct{}
}

func startReplicaNode(t *testing.T, primaryAddr string) *replicaNode {
	t.Helper()
	store := gallery.New(nil)
	cli := dialT(t, primaryAddr)
	n := &replicaNode{
		store: store,
		f:     NewFollower(store, cli, FollowerOptions{Interval: 3 * time.Millisecond}),
		srv:   matchsvc.NewServer(ReadOnlyGallery{Store: store}, nil),
		done:  make(chan struct{}),
	}
	addr, err := n.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = addr
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); n.srv.Serve(ctx) }()
	go func() { defer wg.Done(); n.f.Run(ctx) }()
	go func() { wg.Wait(); cli.Close(); close(n.done) }()
	t.Cleanup(func() { n.kill() })
	return n
}

// kill tears the node down abruptly — listener and sync loop both die,
// like a crashed process. Idempotent.
func (n *replicaNode) kill() {
	n.cancel()
	n.srv.Close()
	<-n.done
}

func TestChaosKillReplicaMidIdentifyUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real listeners and load")
	}
	gal, probes := fixtures(t)

	// Primary: WAL-backed store over TCP.
	ws, err := wal.Open(t.TempDir(), gallery.New(nil), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	psrv := matchsvc.NewServer(ws, nil)
	paddr, err := psrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pctx, pcancel := context.WithCancel(context.Background())
	pdone := make(chan error, 1)
	go func() { pdone <- psrv.Serve(pctx) }()
	defer func() { pcancel(); psrv.Close(); <-pdone }()

	r1 := startReplicaNode(t, paddr)
	r2 := startReplicaNode(t, paddr)

	dial := func(addr string) *shard.Remote {
		cli := dialT(t, addr)
		t.Cleanup(func() { cli.Close() })
		return shard.NewRemote(addr, cli)
	}
	set := NewSet("slot0", dial(paddr), []shard.Backend{dial(r1.addr), dial(r2.addr)},
		SetOptions{FailureThreshold: 2})
	ctx := context.Background()

	// Seed half the cohort so reads have something to rank, and let the
	// replicas catch up before the storm.
	half := len(gal) / 2
	for i := 0; i < half; i++ {
		if err := set.EnrollBatch(ctx, []shard.Enrollment{{ID: subjectID(i), DeviceID: "D0", Template: gal[i]}}); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp := func(f *Follower) {
		deadline := time.Now().Add(5 * time.Second)
		for f.LSN() != ws.LSN() {
			if time.Now().After(deadline) {
				t.Fatalf("replica stuck at lsn %d, primary at %d", f.LSN(), ws.LSN())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitCaughtUp(r1.f)
	waitCaughtUp(r2.f)

	// Load: a writer enrolls the second half while readers identify
	// nonstop. Mid-storm, one replica dies.
	var (
		acked      []string
		ackedMu    sync.Mutex
		reads      atomic.Int64
		readErrs   atomic.Int64
		stop       = make(chan struct{})
		readerWG   sync.WaitGroup
		readErrSet sync.Map
	)
	for w := 0; w < 4; w++ {
		readerWG.Add(1)
		go func(w int) {
			defer readerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				probe := probes[(w+i)%half]
				rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
				_, _, err := set.IdentifyDetailed(rctx, probe, 3)
				cancel()
				reads.Add(1)
				if err != nil {
					readErrs.Add(1)
					readErrSet.Store(err.Error(), true)
				}
			}
		}(w)
	}

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(30 * time.Millisecond)
		r1.kill()
	}()

	for i := half; i < len(gal); i++ {
		if err := set.EnrollBatch(ctx, []shard.Enrollment{{ID: subjectID(i), DeviceID: "D0", Template: gal[i]}}); err != nil {
			t.Fatalf("enroll %d under chaos: %v", i, err)
		}
		ackedMu.Lock()
		acked = append(acked, subjectID(i))
		ackedMu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	<-killed
	time.Sleep(50 * time.Millisecond) // keep reading against the dead member for a while
	close(stop)
	readerWG.Wait()

	if reads.Load() == 0 {
		t.Fatal("no reads issued during the storm")
	}
	// Acceptance: every read answered. A dead member costs in-set
	// failover, not an error surfaced to the caller.
	if readErrs.Load() != 0 {
		var msgs []string
		readErrSet.Range(func(k, _ any) bool { msgs = append(msgs, k.(string)); return false })
		t.Fatalf("%d of %d reads failed during the kill (e.g. %v)", readErrs.Load(), reads.Load(), msgs)
	}

	// Acceptance: zero acked writes lost — every acked enrollment is on
	// the primary (the WAL acked it) and reaches the surviving replica.
	for i := 0; i < half; i++ {
		if _, ok := ws.Get(subjectID(i)); !ok {
			t.Fatalf("pre-storm enrollment %q lost", subjectID(i))
		}
	}
	ackedMu.Lock()
	for _, id := range acked {
		if _, ok := ws.Get(id); !ok {
			t.Fatalf("acked enrollment %q missing from primary", id)
		}
	}
	ackedMu.Unlock()
	waitCaughtUp(r2.f)
	t.Logf("storm summary: %d reads answered, 0 failed; %d live enrollments acked; survivor lag %d",
		reads.Load(), len(acked), r2.f.Lag())

	// Acceptance: post-catch-up identify rankings bit-identical to a
	// single store with the same enrollments — on the surviving replica
	// and through the set.
	// The reference store enrolls through the same codec round trip the
	// wire applies (marshal quantizes once), so "bit-identical" compares
	// matcher output, not codec quantization.
	ref := gallery.New(nil)
	for i, tpl := range gal {
		raw, err := minutiae.Marshal(tpl)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := minutiae.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Enroll(subjectID(i), "D0", rt); err != nil {
			t.Fatal(err)
		}
	}
	for pi := range probes {
		// Probes quantize on the wire the same way enrollments do.
		raw, err := minutiae.Marshal(probes[pi])
		if err != nil {
			t.Fatal(err)
		}
		probe, err := minutiae.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.IdentifyDetailedContext(context.Background(), probe, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := r2.store.IdentifyDetailedContext(context.Background(), probe, 5)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, fmt.Sprintf("replica, probe %d", pi), got, want)
		sgot, _, err := set.IdentifyDetailed(ctx, probe, 5)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, fmt.Sprintf("set, probe %d", pi), sgot, want)
	}
}

// assertSameRanking demands bit-identical candidate lists: same IDs in
// the same order with exactly equal scores.
func assertSameRanking(t *testing.T, where string, got, want []gallery.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", where, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: rank %d is %q, want %q", where, i, got[i].ID, want[i].ID)
		}
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d (%s) score %v, want bit-identical %v",
				where, i, got[i].ID, got[i].Score, want[i].Score)
		}
	}
}
