package matchsvc

// The connection lifecycle as one request loop sees it: a dial that is
// abandoned mid-handshake, a pool that never outgrows its size, and the
// two ways Client.do goes round again — the stale-connection replay
// (any op, nothing reached the wire, at most twice) and the Retry
// policy (idempotent ops, transport failures only).

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpinterop/internal/enc"
	"fpinterop/internal/obs"
)

// TestDialAbandonedMidHandshake: the peer accepts, reads the hello and
// says nothing. Whatever ends the wait — the caller's cancellation, its
// deadline, or the client's own redial timeout — Dial returns promptly
// with that cause and closes the socket; there is never a Client whose
// connection is half-negotiated.
func TestDialAbandonedMidHandshake(t *testing.T) {
	hungUp := make(chan struct{}, 8)
	f := startRawFake(t, func(conn net.Conn, _ int) {
		if op, _, err := readFrame(conn); err != nil || op != OpHello {
			return
		}
		conn.Read(make([]byte, 1)) // returns when the client hangs up
		hungUp <- struct{}{}
	})
	background := func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }
	cases := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		opts ClientOptions
		want error
	}{
		{"caller cancels", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			return ctx, cancel
		}, ClientOptions{}, context.Canceled},
		{"caller's deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}, ClientOptions{RedialTimeout: time.Minute}, context.DeadlineExceeded},
		{"redial timeout", background, ClientOptions{RedialTimeout: 50 * time.Millisecond}, ErrTransport},
		{"request timeout stands in", background, ClientOptions{RequestTimeout: 50 * time.Millisecond}, ErrTransport},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			c, err := Dial(ctx, f.addr(), tc.opts)
			if c != nil {
				c.Close()
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("dial: %v, want %v", err, tc.want)
			}
			if tc.want == ErrTransport && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
				t.Fatalf("the client's own timeout reads as the caller giving up: %v", err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("abandoned dial returned after %v", elapsed)
			}
			select {
			case <-hungUp:
			case <-time.After(2 * time.Second):
				t.Fatal("abandoned dial left its socket open")
			}
		})
	}
}

// TestPoolSizeBoundsConnections: a PoolSize 3 client under 64
// concurrent callers grows past one connection and never past three.
func TestPoolSizeBoundsConnections(t *testing.T) {
	var conns atomic.Int32
	f := startMuxFake(t, func(conn net.Conn, _ int) {
		conns.Add(1)
		var hdr [muxFrameHdrSize]byte
		for {
			_, id, _, err := readMuxReq(conn)
			if err != nil {
				return
			}
			time.Sleep(200 * time.Microsecond) // keep connections busy
			if writeMuxFrame(conn, StatusOK, id, 0, nil, &hdr) != nil {
				return
			}
		}
	})
	c := dialOpts(t, f.addr(), ClientOptions{PoolSize: 3, RequestTimeout: 5 * time.Second})
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := c.Ping(context.Background()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := conns.Load(); got < 2 || got > 3 {
		t.Fatalf("64 callers over a PoolSize 3 client opened %d connections, want 2 or 3", got)
	}
}

// countingFake shakes hands and hands every request to serve with its
// 1-based arrival number across all connections; serve returning false
// hangs up. The returned counter is how many requests reached the fake.
func countingFake(t *testing.T, serve func(conn net.Conn, nreq int, op byte, id uint64) bool) (*muxFake, *atomic.Int32) {
	t.Helper()
	var reqs atomic.Int32
	return startMuxFake(t, func(conn net.Conn, _ int) {
		for {
			op, id, _, err := readMuxReq(conn)
			if err != nil || !serve(conn, int(reqs.Add(1)), op, id) {
				return
			}
		}
	}), &reqs
}

// TestStaleConnectionReplayedAtMostTwice: a connection retired between
// checkout and send (what a server's idle drop looks like to the caller
// that loses the race) costs the request nothing — it is replayed on
// the next connection even though Remove is not idempotent, because
// nothing reached the wire. Two replays are the limit: a third stale
// connection in a row fails the call with a transport error.
func TestStaleConnectionReplayedAtMostTwice(t *testing.T) {
	for _, tc := range []struct {
		stale   int
		wantErr error
	}{{1, nil}, {2, nil}, {3, ErrTransport}} {
		f, reqs := countingFake(t, func(conn net.Conn, _ int, _ byte, id uint64) bool {
			reply(conn, StatusOK, id, nil)
			return true
		})
		c := dialOpts(t, f.addr(), ClientOptions{PoolSize: 3, RequestTimeout: 2 * time.Second})
		defer c.Close()
		c.SetMetrics(obs.NewRegistry())
		// Fill the pool, then retire tc.stale of its connections the way
		// another caller's failed write does: the writer refuses frames
		// first, and the pool learns of it when a caller trips over it.
		for i := 1; i < len(c.pool.slots); i++ {
			w, err := c.connect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			c.pool.slots[i].conn = w
		}
		for i := 0; i < tc.stale; i++ {
			c.pool.slots[i].conn.mw.closed.Store(true)
		}
		err := c.Remove(context.Background(), "alice")
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("%d stale connections: remove = %v, want %v", tc.stale, err, tc.wantErr)
		}
		want := int32(1)
		if tc.wantErr != nil {
			want = 0
		}
		if got := reqs.Load(); got != want {
			t.Fatalf("%d stale connections: the server saw the remove %d times, want %d", tc.stale, got, want)
		}
		if got := c.met.Load().retries.Value(); got != 0 {
			t.Fatalf("%d stale connections: a stale replay was counted as %d policy retries", tc.stale, got)
		}
		requireRecovers(t, c)
	}
}

// TestRetryPolicyScope pins what the Retry policy re-sends and what it
// never does. The fake reads a request and hangs up without answering —
// a transport failure after the request reached the wire — then serves.
func TestRetryPolicyScope(t *testing.T) {
	retry := Retry{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	dropFirst := func(conn net.Conn, nreq int, _ byte, id uint64) bool {
		if nreq == 1 {
			return false
		}
		reply(conn, StatusOK, id, nil)
		return true
	}
	mute := func(net.Conn, int, byte, uint64) bool { return true }
	refuse := func(conn net.Conn, _ int, _ byte, id uint64) bool {
		var w enc.Writer
		_ = w.String("no")
		reply(conn, StatusError, id, w.Buf)
		return true
	}
	bg := context.Background()
	pingShort := func(c *Client) error {
		ctx, cancel := context.WithTimeout(bg, 60*time.Millisecond)
		defer cancel()
		return c.Ping(ctx)
	}
	cases := []struct {
		name        string
		serve       func(net.Conn, int, byte, uint64) bool
		opts        ClientOptions
		call        func(*Client) error
		want        error // nil: success
		wantReqs    int32
		wantRetries uint64
	}{
		{"idempotent op is re-sent after a transport failure", dropFirst,
			ClientOptions{Retry: retry}, func(c *Client) error { return c.Ping(bg) }, nil, 2, 1},
		{"non-idempotent op is not, once it reached the wire", dropFirst,
			ClientOptions{Retry: retry}, func(c *Client) error { return c.Remove(bg, "alice") }, ErrTransport, 1, 0},
		{"retries are off by default", dropFirst,
			ClientOptions{}, func(c *Client) error { return c.Ping(bg) }, ErrTransport, 1, 0},
		{"the fallback request timeout is the answer", mute,
			ClientOptions{Retry: retry, RequestTimeout: 60 * time.Millisecond}, func(c *Client) error { return c.Ping(bg) }, os.ErrDeadlineExceeded, 1, 0},
		{"the caller's deadline is the answer", mute,
			ClientOptions{Retry: retry}, pingShort, context.DeadlineExceeded, 1, 0},
		{"a remote error is the answer", refuse,
			ClientOptions{Retry: retry}, func(c *Client) error { return c.Ping(bg) }, ErrRemote, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, reqs := countingFake(t, tc.serve)
			if tc.opts.RequestTimeout == 0 {
				tc.opts.RequestTimeout = 2 * time.Second
			}
			c := dialOpts(t, f.addr(), tc.opts)
			defer c.Close()
			c.SetMetrics(obs.NewRegistry())
			if err := tc.call(c); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if got := reqs.Load(); got != tc.wantReqs {
				t.Fatalf("the server saw %d requests, want %d", got, tc.wantReqs)
			}
			if got := c.met.Load().retries.Value(); got != tc.wantRetries {
				t.Fatalf("retries_total = %d, want %d", got, tc.wantRetries)
			}
		})
	}
}

// TestServeLeavesNoGoroutineAfterClose: Close ending Serve under a
// context that is never cancelled must not strand the goroutine that
// watches the context.
func TestServeLeavesNoGoroutineAfterClose(t *testing.T) {
	cycle := func() {
		srv := NewServer(nil, nil)
		if _, err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(context.Background()) }()
		srv.Close()
		if err := <-done; err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	cycle() // warm whatever the runtime starts lazily
	before := runtime.NumGoroutine()
	const cycles = 50
	for i := 0; i < cycles; i++ {
		cycle()
	}
	var after int
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if after = runtime.NumGoroutine(); after <= before+cycles/10 {
			return
		}
	}
	t.Fatalf("%d Listen/Serve/Close cycles grew the process from %d to %d goroutines", cycles, before, after)
}

// TestFrameReaderBoundsABegunFrame: the demux reader waits as long as
// it takes for a response to begin, but once a frame's header is in,
// its body must follow within the bound — a header whose length prefix
// promises bytes that never come fails the read, which retires the
// connection, instead of wedging it.
func TestFrameReaderBoundsABegunFrame(t *testing.T) {
	const bound = 50 * time.Millisecond
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	fr := frameReader{nc: client, timeout: bound}
	var hdr [5]byte

	go func() {
		time.Sleep(3 * bound) // quiet between frames
		server.Write([]byte{0, 0, 0, 2, StatusOK, 'o', 'k'})
	}()
	if status, payload, err := fr.read(&hdr); err != nil || status != StatusOK || string(payload) != "ok" {
		t.Fatalf("frame after a quiet spell: status %d payload %q err %v", status, payload, err)
	}

	go server.Write([]byte{0, 0, 0, 100, StatusOK, 'x'}) // 99 bytes short
	start := time.Now()
	if _, _, err := fr.read(&hdr); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled frame body: %v, want a deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 20*bound {
		t.Fatalf("stalled frame body failed after %v", elapsed)
	}
}
