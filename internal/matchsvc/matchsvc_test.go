package matchsvc

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"fpinterop/internal/enc"
	"fpinterop/internal/gallery"
	"fpinterop/internal/index"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// dialT connects a test client, bounded so a wedged server fails the
// test instead of hanging it.
func dialT(t testing.TB, addr string) *Client {
	t.Helper()
	return dialOpts(t, addr, ClientOptions{})
}

// dialOpts is dialT with the client configured; redials are bounded
// like the dial itself.
func dialOpts(t testing.TB, addr string, opts ClientOptions) *Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	opts.RedialTimeout = 2 * time.Second
	cli, err := Dial(ctx, addr, opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return cli
}

// startServer spins a server on an ephemeral port and returns a connected
// client; everything shuts down with the test.
func startServer(t *testing.T) (*Client, *Server) {
	t.Helper()
	srv := NewServer(gallery.New(nil), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	cli := dialT(t, addr)
	t.Cleanup(func() { cli.Close() })
	return cli, srv
}

// testImpressions captures a small cohort on a device.
func testImpressions(t testing.TB, n int, deviceID string, sample int) []*minutiae.Template {
	t.Helper()
	cohort := population.NewCohort(rng.New(999), population.CohortOptions{Size: n})
	dev, _ := sensor.ProfileByID(deviceID)
	out := make([]*minutiae.Template, n)
	for i, s := range cohort.Subjects {
		imp, err := dev.CaptureSubject(s, sample, sensor.CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = imp.Template
	}
	return out
}

func TestPing(t *testing.T) {
	cli, _ := startServer(t)
	if err := cli.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteMatch(t *testing.T) {
	cli, _ := startServer(t)
	tpls := testImpressions(t, 2, "D0", 0)
	probes := testImpressions(t, 2, "D0", 1)
	if err := cli.EnrollBatch(context.Background(), []Enrollment{{ID: "alice", DeviceID: "D0", Template: tpls[0]}}); err != nil {
		t.Fatal(err)
	}
	genuine, err := cli.Verify(context.Background(), "alice", probes[0])
	if err != nil {
		t.Fatal(err)
	}
	impostor, err := cli.Verify(context.Background(), "alice", probes[1])
	if err != nil {
		t.Fatal(err)
	}
	if genuine.Score <= impostor.Score {
		t.Fatalf("remote genuine %v not above impostor %v", genuine.Score, impostor.Score)
	}
	if genuine.Matched == 0 {
		t.Fatal("no matched minutiae reported")
	}
}

func TestEnrollVerifyIdentifyRemove(t *testing.T) {
	cli, _ := startServer(t)
	gallery := testImpressions(t, 3, "D0", 0)
	probes := testImpressions(t, 3, "D1", 1) // cross-device probes
	ids := []string{"alice", "bob", "carol"}
	for i, tpl := range gallery {
		if err := cli.EnrollBatch(context.Background(), []Enrollment{{ID: ids[i], DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := cli.Len(context.Background()); err != nil || n != 3 {
		t.Fatalf("count = %d, %v", n, err)
	}
	res, err := cli.Verify(context.Background(), "alice", probes[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Score <= 0 {
		t.Fatalf("verify score %v", res.Score)
	}
	cands, _, err := cli.IdentifyEx(context.Background(), probes[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("got %d candidates", len(cands))
	}
	if cands[0].ID != "bob" {
		t.Fatalf("rank-1 = %s, want bob", cands[0].ID)
	}
	if cands[0].DeviceID != "D0" {
		t.Fatal("device metadata lost in transit")
	}
	if err := cli.Remove(context.Background(), "bob"); err != nil {
		t.Fatal(err)
	}
	if n, _ := cli.Len(context.Background()); n != 2 {
		t.Fatalf("count after remove = %d", n)
	}
}

func TestRemoteErrors(t *testing.T) {
	cli, _ := startServer(t)
	tpl := testImpressions(t, 1, "D0", 0)[0]
	// Verify against unknown ID → remote error.
	if _, err := cli.Verify(context.Background(), "ghost", tpl); !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
	if err := cli.EnrollBatch(context.Background(), []Enrollment{{ID: "a", DeviceID: "D0", Template: tpl}}); err != nil {
		t.Fatal(err)
	}
	if err := cli.EnrollBatch(context.Background(), []Enrollment{{ID: "a", DeviceID: "D0", Template: tpl}}); !errors.Is(err, ErrRemote) {
		t.Fatalf("duplicate enroll: want ErrRemote, got %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	cli, srv := startServer(t)
	tpls := testImpressions(t, 4, "D0", 0)
	for i, tpl := range tpls {
		if err := cli.EnrollBatch(context.Background(), []Enrollment{{ID: string(rune('a' + i)), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}
	addr := srv.listener.Addr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialContext(context.Background(), addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 3; i++ {
				if _, _, err := c.IdentifyEx(context.Background(), tpls[w], 1); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMalformedPayloadRejected(t *testing.T) {
	cli, _ := startServer(t)
	// OpVerify with garbage payload must produce a clean error frame, not
	// a hang or crash.
	err := cli.do(context.Background(), OpVerify, []byte{1, 2, 3}, nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
	if err := cli.Ping(context.Background()); err != nil {
		t.Fatalf("ping after the rejected request: %v", err)
	}
}

func TestFrameCap(t *testing.T) {
	var sink deadWriter
	err := writeFrame(&sink, OpPing, make([]byte, maxFrame+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

type deadWriter struct{}

func (deadWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestServeBeforeListen(t *testing.T) {
	srv := NewServer(nil, nil)
	if err := srv.Serve(context.Background()); err == nil {
		t.Fatal("expected error")
	}
}

func TestServerCloseIdempotentShutdown(t *testing.T) {
	cli, srv := startServer(t)
	_ = cli.Ping(context.Background())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// After close, client requests fail.
	if err := cli.Ping(context.Background()); err == nil {
		t.Fatal("ping succeeded after server close")
	}
}

func TestClientRequestTimeout(t *testing.T) {
	// A server that shakes hands but never replies to a request: the
	// request must fail by deadline rather than hang.
	cli := dialOpts(t, startMuteFake(t).addr(), ClientOptions{RequestTimeout: 100 * time.Millisecond})
	defer cli.Close()
	start := time.Now()
	if err := cli.Ping(context.Background()); err == nil {
		t.Fatal("ping to mute server succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout did not bound the request")
	}
}

func TestIdentifyExStatsOverIndexedStore(t *testing.T) {
	store := gallery.New(nil)
	if err := store.EnableIndex(gallery.IndexOptions{
		Index:         index.Options{Fanout: 8},
		MinCandidates: 2,
	}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	cli := dialT(t, addr)
	t.Cleanup(func() { cli.Close() })

	tpls := testImpressions(t, 20, "D0", 0)
	probes := testImpressions(t, 20, "D0", 1)
	for i, tpl := range tpls {
		if err := cli.EnrollBatch(context.Background(), []Enrollment{{ID: fmt.Sprintf("subj-%02d", i), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}
	cands, stats, err := cli.IdentifyEx(context.Background(), probes[4], 1)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Indexed {
		t.Fatalf("indexed store did not serve from the shortlist: %+v", stats)
	}
	if stats.GallerySize != 20 || stats.Shortlist == 0 || stats.Scanned == 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
	if stats.Scanned >= stats.GallerySize {
		t.Fatalf("shortlist did not prune the gallery: %+v", stats)
	}
	if len(cands) != 1 || cands[0].ID != "subj-04" {
		t.Fatalf("indexed identification wrong: %+v", cands)
	}
}

func TestIdentifyExStatsOverPlainStore(t *testing.T) {
	cli, _ := startServer(t)
	tpls := testImpressions(t, 3, "D0", 0)
	probes := testImpressions(t, 3, "D0", 1)
	for i, tpl := range tpls {
		if err := cli.EnrollBatch(context.Background(), []Enrollment{{ID: fmt.Sprintf("p-%d", i), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}
	cands, stats, err := cli.IdentifyEx(context.Background(), probes[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Indexed || stats.Shortlist != 0 {
		t.Fatalf("plain store reported an indexed search: %+v", stats)
	}
	if stats.GallerySize != 3 || stats.Scanned != 3 {
		t.Fatalf("exhaustive stats wrong: %+v", stats)
	}
	if stats.ShardsQueried != 1 || stats.ShardsSkipped != 0 || stats.ShardsFailed != 0 || stats.Partial {
		t.Fatalf("one store's coverage wrong: %+v", stats)
	}
	if len(cands) != 2 || cands[0].ID != "p-1" {
		t.Fatalf("identification wrong: %+v", cands)
	}
}

// TestIdentifyReplyCoverageTail pins the OpIdentifyEx reply's coverage
// tail in both directions of a version skew: a reader that stops after
// the candidates (a client from before the tail) still decodes the new
// reply, and a reply without the tail (a server from before it) is a
// short payload to decodeIdentify — never a count of zero.
func TestIdentifyReplyCoverageTail(t *testing.T) {
	want := []gallery.Candidate{{ID: "a", DeviceID: "D0", Score: 0.75}, {ID: "b", DeviceID: "D1", Score: 0.5}}
	st := gallery.IdentifyStats{GallerySize: 40, Shortlist: 9, Scanned: 9, Indexed: true,
		ShardsQueried: 3, ShardsSkipped: 1, ShardsFailed: 1}
	var w enc.Writer
	if err := encodeIdentify(&w, want, st); err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := decodeIdentify(&enc.Reader{Buf: w.Buf})
	st.Partial = true
	if err != nil || !reflect.DeepEqual(got, want) || gotSt != st {
		t.Fatalf("round trip: %+v %+v %v, want %+v %+v", got, gotSt, err, want, st)
	}

	old := enc.Reader{Buf: w.Buf}
	for range 4 { // gallery size, shortlist, scanned, indexed
		old.Uint32()
	}
	for n := old.Count(12); n > 0; n-- {
		_, _ = old.String(), old.String()
		old.Float64()
	}
	if old.Err() != nil || len(old.Buf) != 12 {
		t.Fatalf("a reader stopping after the candidates: %v with %d bytes left, want nil and the 12-byte tail", old.Err(), len(old.Buf))
	}

	if _, _, err := decodeIdentify(&enc.Reader{Buf: w.Buf[:len(w.Buf)-12]}); !errors.Is(err, enc.ErrShort) {
		t.Fatalf("reply without the coverage tail: %v, want enc.ErrShort", err)
	}
}
