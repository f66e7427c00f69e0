package matchsvc

// Client-side failure paths: a well-behaved client must surface server
// error statuses, truncated or oversized response frames, and mid-response
// connection loss as clean errors rather than hangs, panics, or silently
// wrong results.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpinterop/internal/enc"
	"fpinterop/internal/gallery"
	"fpinterop/internal/obs"
	"fpinterop/internal/wal"
)

// fakeServer completes the hello handshake, reads one enveloped request,
// and hands the connection plus that request's ID to respond for a
// scripted reply (built on the scripted v2 helper in mux_test.go).
func fakeServer(t *testing.T, respond func(conn net.Conn, id uint64)) string {
	t.Helper()
	return startMuxFake(t, func(conn net.Conn, _ int) {
		_, id, _, err := readMuxReq(conn)
		if err != nil {
			return
		}
		respond(conn, id)
	}).addr()
}

// reply writes one well-formed enveloped response frame.
func reply(conn net.Conn, status byte, id uint64, body []byte) {
	var hdr [muxFrameHdrSize]byte
	_ = writeMuxFrame(conn, status, id, 0, body, &hdr)
}

// dialFake dials a scripted server with a fallback request timeout, so
// a script that goes quiet fails the test instead of hanging it.
func dialFake(t *testing.T, addr string) *Client {
	t.Helper()
	return dialFakeTimeout(t, addr, 2*time.Second)
}

func dialFakeTimeout(t *testing.T, addr string, requestTimeout time.Duration) *Client {
	t.Helper()
	cli := dialOpts(t, addr, ClientOptions{RequestTimeout: requestTimeout})
	t.Cleanup(func() { cli.Close() })
	return cli
}

func TestClientServerStatusError(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn, id uint64) {
		var w enc.Writer
		_ = w.String("synthetic failure")
		reply(conn, StatusError, id, w.Buf)
	})
	err := dialFake(t, addr).Ping(context.Background())
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
	if !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("error lost the server message: %v", err)
	}
}

// TestClientStatusCodesCarrySentinels pins the wire error vocabulary:
// the status byte alone decides which sentinel the client's error
// wraps. A message that merely spells a sentinel's text — as an
// enrollment ID may — under the generic StatusError maps to nothing.
func TestClientStatusCodesCarrySentinels(t *testing.T) {
	sentinels := []error{gallery.ErrNotFound, gallery.ErrDuplicate, ErrReadOnly, wal.ErrSnapshotExpired}
	cases := []struct {
		status byte
		msg    string
		want   error // nil: ErrRemote only
	}{
		{StatusNotFound, `verify "alice": gallery: enrollment not found`, gallery.ErrNotFound},
		{StatusNotFound, "", gallery.ErrNotFound},
		{StatusDuplicate, `enroll "gallery: enrollment not found": gallery: enrollment ID already exists`, gallery.ErrDuplicate},
		{StatusReadOnly, "write to the primary", ErrReadOnly},
		{StatusSnapshotExpired, "wal: sync snapshot expired", wal.ErrSnapshotExpired},
		{StatusError, `verify "alice": gallery: enrollment not found`, nil},
		{StatusError, "gallery: enrollment ID already exists", nil},
	}
	for _, tc := range cases {
		addr := fakeServer(t, func(conn net.Conn, id uint64) {
			var w enc.Writer
			_ = w.String(tc.msg)
			reply(conn, tc.status, id, w.Buf)
		})
		err := dialFake(t, addr).Remove(context.Background(), "alice")
		if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("status 0x%02x %q: want ErrRemote carrying the message, got %v", tc.status, tc.msg, err)
		}
		for _, s := range sentinels {
			if got := errors.Is(err, s); got != (s == tc.want) {
				t.Fatalf("status 0x%02x %q: errors.Is(%v, %v) = %v", tc.status, tc.msg, err, s, got)
			}
		}
		if got := StatusFor(err); got != tc.status {
			t.Fatalf("status 0x%02x %q: a server relaying %v would answer 0x%02x", tc.status, tc.msg, err, got)
		}
	}
}

func TestClientMalformedErrorPayload(t *testing.T) {
	// StatusError whose payload is not a valid string: still ErrRemote,
	// with a placeholder message instead of a decode panic.
	addr := fakeServer(t, func(conn net.Conn, id uint64) {
		reply(conn, StatusError, id, []byte{0xff})
	})
	err := dialFake(t, addr).Ping(context.Background())
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
	if !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("expected placeholder message, got %v", err)
	}
}

func TestClientUnknownStatus(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn, id uint64) {
		reply(conn, 0x7e, id, nil)
	})
	err := dialFake(t, addr).Ping(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown status") {
		t.Fatalf("want unknown-status error, got %v", err)
	}
}

func TestClientOversizeResponseRejected(t *testing.T) {
	// A frame header claiming more than the 1 MiB cap must be rejected
	// before the client tries to allocate or read the payload.
	addr := fakeServer(t, func(conn net.Conn, _ uint64) {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], maxFrame+1)
		hdr[4] = StatusOK
		_, _ = conn.Write(hdr[:])
	})
	err := dialFake(t, addr).Ping(context.Background())
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestClientTruncatedResponse(t *testing.T) {
	// Header promises 100 payload bytes but the connection closes after 10.
	addr := fakeServer(t, func(conn net.Conn, _ uint64) {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], 100)
		hdr[4] = StatusOK
		_, _ = conn.Write(hdr[:])
		_, _ = conn.Write(make([]byte, 10))
	})
	err := dialFake(t, addr).Ping(context.Background())
	if err == nil || !strings.Contains(err.Error(), "read response") {
		t.Fatalf("want read-response error, got %v", err)
	}
}

func TestClientConnClosedMidResponse(t *testing.T) {
	addr := fakeServer(t, func(net.Conn, uint64) {
		// Close without replying at all.
	})
	if _, err := dialFake(t, addr).Len(context.Background()); err == nil {
		t.Fatal("count over a closed connection succeeded")
	}
}

func TestClientShortResultPayload(t *testing.T) {
	// StatusOK whose payload is too short for the expected result shape.
	addr := fakeServer(t, func(conn net.Conn, id uint64) {
		reply(conn, StatusOK, id, []byte{0, 0})
	})
	if _, err := dialFake(t, addr).Len(context.Background()); !errors.Is(err, enc.ErrShort) {
		t.Fatalf("want short-payload error, got %v", err)
	}
}

// TestClientCorruptHelloReplyRedials: the hello exchange is the one
// envelope-free (so checksum-free) moment of a connection. Whatever a
// damaged — or hostile, or pre-v2 — reply looks like, the client must
// not settle into a session on that connection. On the first
// connection that fails Dial itself; on a redial it fails the one call
// that triggered it, and the next call redials and handshakes again.
// Either way the error is a typed transport error and the socket is
// closed, not left to a peer that would answer bare frames.
func TestClientCorruptHelloReplyRedials(t *testing.T) {
	str := func(msg string) []byte {
		var w enc.Writer
		_ = w.String(msg)
		return w.Buf
	}
	replies := []struct {
		name   string
		status byte
		body   []byte
	}{
		{"v1 server's unknown-opcode refusal", StatusError, str("matchsvc: unknown opcode 0x0d")},
		{"version refusal", StatusError, str("matchsvc: unsupported protocol version")},
		{"status bit flipped", 0x80, []byte{0, 0, 0, protoMuxed}},
		{"version 1", StatusOK, []byte{0, 0, 0, 1}},
		{"version 2", StatusOK, []byte{0, 0, 0, 2}},
		{"version bits flipped", StatusOK, []byte{0, 0x40, 0, protoMuxed}},
		{"truncated version", StatusOK, []byte{0, 0}},
		{"empty", StatusOK, nil},
	}
	// badHelloFake answers connection number badConn with the bad reply
	// and then stays open, answering bare frames the way a v1 server
	// would: a client that downgraded would get pings through. hungUp is
	// closed when the client closes that socket. Earlier connections
	// shake hands, serve one request and hang up; later ones serve.
	badHelloFake := func(t *testing.T, status byte, body []byte, badConn int) (f *muxFake, hungUp chan struct{}) {
		hungUp = make(chan struct{})
		return startRawFake(t, func(conn net.Conn, nconn int) {
			if nconn != badConn {
				if muxFakeHandshake(conn) != nil {
					return
				}
				if nconn > badConn {
					answerPings(conn)
				} else if _, id, _, err := readMuxReq(conn); err == nil {
					reply(conn, StatusOK, id, nil)
				}
				return
			}
			if op, _, err := readFrame(conn); err != nil || op != OpHello {
				return
			}
			_ = writeFrame(conn, status, body)
			for {
				if _, _, err := readFrame(conn); err != nil {
					close(hungUp)
					return
				}
				if writeFrame(conn, StatusOK, nil) != nil {
					return
				}
			}
		}), hungUp
	}
	requireHungUp := func(t *testing.T, hungUp chan struct{}) {
		t.Helper()
		select {
		case <-hungUp:
		case <-time.After(2 * time.Second):
			t.Fatal("the socket that answered a bad hello was left open")
		}
	}
	for _, bad := range replies {
		t.Run(bad.name+"/dial", func(t *testing.T) {
			f, hungUp := badHelloFake(t, bad.status, bad.body, 1)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			c, err := Dial(ctx, f.addr(), ClientOptions{})
			if !errors.Is(err, ErrTransport) {
				if c != nil {
					c.Close()
				}
				t.Fatalf("dial over a bad hello reply: want ErrTransport, got %v", err)
			}
			requireHungUp(t, hungUp)
		})
		t.Run(bad.name+"/redial", func(t *testing.T) {
			f, hungUp := badHelloFake(t, bad.status, bad.body, 2)
			c := dialMuxFake(t, f)
			c.SetMetrics(obs.NewRegistry())
			if err := c.Ping(context.Background()); err != nil {
				t.Fatalf("ping on the first connection: %v", err)
			}
			// The fake hung up after that answer; wait until the client has
			// seen it, so the next call is the one that redials.
			first := c.pool.snapshot()[0]
			for deadline := time.Now().Add(2 * time.Second); !first.isDead(); {
				if time.Now().After(deadline) {
					t.Fatal("client never noticed the first connection closing")
				}
				time.Sleep(time.Millisecond)
			}
			if err := c.Ping(context.Background()); !errors.Is(err, ErrTransport) {
				t.Fatalf("ping whose redial got a bad hello reply: want ErrTransport, got %v", err)
			}
			requireHungUp(t, hungUp)
			requireRecovers(t, c)
			if got := c.met.Load().redials.Value(); got != 1 {
				t.Fatalf("redials = %d, want exactly the one that replaced the connection", got)
			}
		})
	}
}

// TestServerDropsConnectionWithoutV2Hello: the server speaks only to
// connections that open with a hello proposing the current version (3,
// whose envelope carries the budget) or newer. Anything else — a
// version-2 hello included, there is no downgrade — gets no reply at
// all: the connection is closed.
func TestServerDropsConnectionWithoutV2Hello(t *testing.T) {
	_, srv := startServer(t)
	addr := srv.listener.Addr().String()
	firsts := []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"ping", OpPing, nil},
		{"count", OpCount, nil},
		{"unknown opcode", 0x7f, nil},
		{"retired identify", 0x05, nil},
		{"version-1 hello", OpHello, []byte{0, 0, 0, 1}},
		{"version-2 hello", OpHello, []byte{0, 0, 0, 2}},
		{"version-0 hello", OpHello, []byte{0, 0, 0, 0}},
		{"truncated hello", OpHello, []byte{0, 0}},
	}
	for _, first := range firsts {
		t.Run(first.name, func(t *testing.T) {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := writeFrame(conn, first.op, first.payload); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if status, payload, err := readFrame(conn); !errors.Is(err, io.EOF) {
				t.Fatalf("want the connection closed without a reply, got status 0x%02x payload %x err %v", status, payload, err)
			}
		})
	}
	// A newer client proposing a later version is answered with the
	// version the server speaks.
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, OpHello, []byte{0, 0, 0, 4}); err != nil {
		t.Fatal(err)
	}
	status, payload, err := readFrame(conn)
	if err != nil || status != StatusOK || !bytes.Equal(payload, []byte{0, 0, 0, protoMuxed}) {
		t.Fatalf("hello v4: status 0x%02x payload %x err %v, want OK and version %d", status, payload, err, protoMuxed)
	}
}

func TestClientRedialsAfterIdleDrop(t *testing.T) {
	// A server with an aggressive idle timeout drops the quiet client;
	// the client's next request redials transparently instead of failing
	// forever on the dead connection — the lifecycle a long-lived shard
	// front depends on.
	srv := NewServer(nil, nil)
	srv.SetIdleTimeout(100 * time.Millisecond)
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
	cli := dialOpts(t, addr, ClientOptions{RequestTimeout: 2 * time.Second})
	defer cli.Close()
	if err := cli.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond) // server drops the idle connection
	// One request may surface the broken connection; within two requests
	// the client must be healthy again.
	if err := cli.Ping(context.Background()); err != nil {
		if err := cli.Ping(context.Background()); err != nil {
			t.Fatalf("client did not recover after idle drop: %v", err)
		}
	}
	if _, err := cli.Len(context.Background()); err != nil {
		t.Fatalf("count after recovery: %v", err)
	}
	// A closed client stays closed — no zombie redials.
	cli.Close()
	if err := cli.Ping(context.Background()); err == nil {
		t.Fatal("request on a closed client succeeded")
	}
}

func TestServerIdleTimeoutDropsStalledConnection(t *testing.T) {
	srv := NewServer(nil, nil)
	srv.SetIdleTimeout(150 * time.Millisecond)
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

	// A slow-loris connection: send a partial frame header, then stall.
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("stalled connection was answered instead of dropped")
	} else if netErr, ok := err.(net.Error); ok && netErr.Timeout() {
		t.Fatal("server kept the stalled connection past the idle timeout")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("drop took %v, idle timeout was 150ms", waited)
	}

	// A live connection with activity inside the timeout keeps working.
	cli := dialT(t, addr)
	defer cli.Close()
	for i := 0; i < 3; i++ {
		if err := cli.Ping(context.Background()); err != nil {
			t.Fatalf("ping %d over live connection: %v", i, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestEnrollBatchChunksUnderFrameBudget(t *testing.T) {
	cli, _ := startServer(t)
	tpls := testImpressions(t, 8, "D0", 0)
	items := make([]Enrollment, len(tpls))
	for i, tpl := range tpls {
		items[i] = Enrollment{ID: fmt.Sprintf("batch-%02d", i), DeviceID: "D0", Template: tpl}
	}
	// A tiny budget forces one frame per item or two; the server must see
	// every item regardless of how the client splits the frames.
	var itemSize int // largest encoded item
	for _, it := range items {
		var w enc.Writer
		_ = it.AppendTo(&w)
		if len(w.Buf) > itemSize {
			itemSize = len(w.Buf)
		}
	}
	if err := cli.enrollBatchChunked(context.Background(), items, itemSize+8); err != nil {
		t.Fatal(err)
	}
	if got, err := cli.Len(context.Background()); err != nil || got != len(items) {
		t.Fatalf("server holds %d enrollments (%v)", got, err)
	}

	// One item alone over the budget is rejected up front.
	if err := cli.enrollBatchChunked(context.Background(), items[:1], 16); err == nil {
		t.Fatal("oversized single item accepted")
	}
}

func TestEnrollBatchPartialFailure(t *testing.T) {
	cli, _ := startServer(t)
	tpls := testImpressions(t, 4, "D0", 0)
	items := make([]Enrollment, len(tpls))
	for i, tpl := range tpls {
		items[i] = Enrollment{ID: fmt.Sprintf("p-%d", i), DeviceID: "D0", Template: tpl}
	}
	items[2].ID = "p-0" // duplicate → server fails at item 2
	if err := cli.EnrollBatch(context.Background(), items); !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
	// The chunk failed as a whole, but the server (a plain store) kept
	// the items preceding the failure.
	if got, err := cli.Len(context.Background()); err != nil || got != 2 {
		t.Fatalf("server enrolled %d (%v), want the 2 preceding the duplicate", got, err)
	}
}

func TestEnrollBatchEmpty(t *testing.T) {
	cli, _ := startServer(t)
	if err := cli.EnrollBatch(context.Background(), nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestEnrollBatchConcurrentWithIdentify(t *testing.T) {
	cli, srv := startServer(t)
	tpls := testImpressions(t, 6, "D0", 0)
	probes := testImpressions(t, 6, "D0", 1)
	seed := make([]Enrollment, 3)
	for i := 0; i < 3; i++ {
		seed[i] = Enrollment{ID: fmt.Sprintf("s-%d", i), DeviceID: "D0", Template: tpls[i]}
	}
	if err := cli.EnrollBatch(context.Background(), seed); err != nil {
		t.Fatal(err)
	}
	addr := srv.listener.Addr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		c, err := DialContext(context.Background(), addr)
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		rest := make([]Enrollment, 3)
		for i := 0; i < 3; i++ {
			rest[i] = Enrollment{ID: fmt.Sprintf("t-%d", i), DeviceID: "D0", Template: tpls[3+i]}
		}
		if err := c.EnrollBatch(context.Background(), rest); err != nil {
			errs <- err
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, _, err := cli.IdentifyEx(context.Background(), probes[i%len(probes)], 1); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, err := cli.Len(context.Background()); err != nil || n != 6 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

// countingListener counts accepted connections so tests can prove a
// dial never reached the network.
func countingListener(t *testing.T) (net.Listener, *int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepts int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			atomic.AddInt32(&accepts, 1)
			conn.Close()
		}
	}()
	return ln, &accepts
}

// TestDialContextPreCancelledFailsFastWithoutDialing is the satellite
// contract: a context cancelled before DialContext is called fails
// immediately with the context's error and never opens a connection.
func TestDialContextPreCancelledFailsFastWithoutDialing(t *testing.T) {
	ln, accepts := countingListener(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	cli, err := DialContext(ctx, ln.Addr().String())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (client=%v)", err, cli)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("pre-cancelled dial took %v", elapsed)
	}
	// Give a would-be connection time to surface, then require none.
	time.Sleep(50 * time.Millisecond)
	if n := atomic.LoadInt32(accepts); n != 0 {
		t.Fatalf("pre-cancelled dial reached the listener %d times", n)
	}
}

// TestDialContextConnects sanity-checks the happy path against a real
// server.
func TestDialContextConnects(t *testing.T) {
	_, srv := startServer(t)
	addr := srv.listener.Addr().String()
	cli, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRequestCancellationInterruptsBlockedIO proves an in-flight
// request blocked on a mute server unblocks promptly with ctx.Err()
// when its context is cancelled — no fallback timeout required — and
// that the client recovers on the next request.
func TestRequestCancellationInterruptsBlockedIO(t *testing.T) {
	// A server that shakes hands, then reads but never replies.
	cli, err := DialContext(context.Background(), startMuteFake(t).addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = cli.Ping(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled request returned after %v", elapsed)
	}
	// A context deadline bounds the round trip the same way.
	dctx, dcancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer dcancel()
	start = time.Now()
	if err := cli.Ping(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-bounded request returned after %v", elapsed)
	}
}
