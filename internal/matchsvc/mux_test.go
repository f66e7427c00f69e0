package matchsvc

// Error-path tests for the multiplexed client: scripted mux-speaking
// fake servers inject the precise wire violations (truncation, oversize
// frames, unknown request IDs, corrupt checksums, mid-flight closes)
// and the tests assert the client's contract — a prompt typed error for
// every in-flight call, and a pool that recovers on the next request.

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"fpinterop/internal/enc"
	"fpinterop/internal/obs"
)

// muxFake is a scripted server: it accepts connections and hands each
// raw connection to the script along with its 1-based accept number.
// The script owns the connection from there; returning closes it.
type muxFake struct {
	ln net.Listener
	wg sync.WaitGroup
}

// startMuxFake is startRawFake with the hello handshake already
// answered (StatusOK/protoMuxed) when the script takes over.
func startMuxFake(t *testing.T, script func(conn net.Conn, nconn int)) *muxFake {
	t.Helper()
	return startRawFake(t, func(conn net.Conn, nconn int) {
		if err := muxFakeHandshake(conn); err != nil {
			return
		}
		script(conn, nconn)
	})
}

func startRawFake(t *testing.T, script func(conn net.Conn, nconn int)) *muxFake {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f := &muxFake{ln: ln}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for n := 1; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go func(conn net.Conn, n int) {
				defer f.wg.Done()
				defer conn.Close()
				script(conn, n)
			}(conn, n)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		f.wg.Wait()
	})
	return f
}

func (f *muxFake) addr() string { return f.ln.Addr().String() }

// startMuteFake answers the hello and then reads requests without ever
// replying to one.
func startMuteFake(t *testing.T) *muxFake {
	t.Helper()
	return startMuxFake(t, func(conn net.Conn, _ int) { io.Copy(io.Discard, conn) })
}

// muxFakeHandshake consumes the client's hello and accepts the mux.
func muxFakeHandshake(conn net.Conn) error {
	op, _, err := readFrame(conn)
	if err != nil {
		return err
	}
	if op != OpHello {
		return errors.New("expected hello")
	}
	var w enc.Writer
	w.Uint32(protoMuxed)
	return writeFrame(conn, StatusOK, w.Buf)
}

// readMuxReq reads and unseals one enveloped request frame.
func readMuxReq(conn net.Conn) (op byte, id uint64, body []byte, err error) {
	op, payload, err := readFrame(conn)
	if err != nil {
		return 0, 0, nil, err
	}
	id, _, body, err = openMuxEnvelope(op, payload)
	return op, id, body, err
}

// answerPings serves valid responses until the connection drops — the
// recovery half of every error-path script.
func answerPings(conn net.Conn) {
	var hdr [muxFrameHdrSize]byte
	for {
		_, id, _, err := readMuxReq(conn)
		if err != nil {
			return
		}
		if err := writeMuxFrame(conn, StatusOK, id, 0, nil, &hdr); err != nil {
			return
		}
	}
}

func dialMuxFake(t *testing.T, f *muxFake) *Client {
	t.Helper()
	return dialFake(t, f.addr())
}

// requireRecovers asserts the pool replaces the killed connection and
// the next request succeeds.
func requireRecovers(t *testing.T, c *Client) {
	t.Helper()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after recovery: %v", err)
	}
}

func TestMuxTruncatedResponseTypedErrorAndRecovery(t *testing.T) {
	f := startMuxFake(t, func(conn net.Conn, nconn int) {
		if nconn > 1 {
			answerPings(conn)
			return
		}
		_, id, _, err := readMuxReq(conn)
		if err != nil {
			return
		}
		// Announce a 100-byte payload, deliver 10, and vanish.
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], 100)
		hdr[4] = StatusOK
		conn.Write(hdr[:])
		conn.Write(make([]byte, 10))
		_ = id
	})
	c := dialMuxFake(t, f)
	err := c.Ping(context.Background())
	if err == nil {
		t.Fatal("expected error from truncated response")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("want ErrTransport, got %v", err)
	}
	requireRecovers(t, c)
}

func TestMuxOversizeResponseTypedErrorAndRecovery(t *testing.T) {
	f := startMuxFake(t, func(conn net.Conn, nconn int) {
		if nconn > 1 {
			answerPings(conn)
			return
		}
		if _, _, _, err := readMuxReq(conn); err != nil {
			return
		}
		// A length prefix over the 1 MiB cap: the client must refuse it
		// before reading a byte of payload.
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], maxFrame+1)
		hdr[4] = StatusOK
		conn.Write(hdr[:])
	})
	c := dialMuxFake(t, f)
	err := c.Ping(context.Background())
	if !errors.Is(err, ErrFrameTooLarge) || !errors.Is(err, ErrTransport) {
		t.Fatalf("want ErrFrameTooLarge wrapped in ErrTransport, got %v", err)
	}
	requireRecovers(t, c)
}

func TestMuxUnknownRequestIDKillsConnection(t *testing.T) {
	f := startMuxFake(t, func(conn net.Conn, nconn int) {
		if nconn > 1 {
			answerPings(conn)
			return
		}
		_, id, _, err := readMuxReq(conn)
		if err != nil {
			return
		}
		// A well-formed response to a request this client never made.
		var hdr [muxFrameHdrSize]byte
		writeMuxFrame(conn, StatusOK, id+1000, 0, nil, &hdr)
		answerPings(conn)
	})
	c := dialMuxFake(t, f)
	err := c.Ping(context.Background())
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("want ErrTransport, got %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "unknown request id") {
		t.Fatalf("error should name the unknown request id, got %v", err)
	}
	requireRecovers(t, c)
}

func TestMuxCorruptChecksumTypedErrorAndRecovery(t *testing.T) {
	f := startMuxFake(t, func(conn net.Conn, nconn int) {
		if nconn > 1 {
			answerPings(conn)
			return
		}
		_, id, _, err := readMuxReq(conn)
		if err != nil {
			return
		}
		// A frame whose CRC does not cover its contents.
		var hdr [muxFrameHdrSize]byte
		binary.BigEndian.PutUint32(hdr[:4], muxEnvelopeSize)
		hdr[4] = StatusOK
		binary.BigEndian.PutUint64(hdr[5:13], id)
		binary.BigEndian.PutUint32(hdr[17:21], muxCRC(StatusOK, id, 0, nil)^0xdeadbeef)
		conn.Write(hdr[:])
	})
	c := dialMuxFake(t, f)
	err := c.Ping(context.Background())
	if !errors.Is(err, ErrCorruptFrame) || !errors.Is(err, ErrTransport) {
		t.Fatalf("want ErrCorruptFrame wrapped in ErrTransport, got %v", err)
	}
	requireRecovers(t, c)
}

func TestMuxServerCloseFailsAllInFlightPromptly(t *testing.T) {
	const inFlight = 4
	f := startMuxFake(t, func(conn net.Conn, nconn int) {
		if nconn > 1 {
			answerPings(conn)
			return
		}
		// Collect the whole burst without answering, then hang up: every
		// waiter must get a typed error, not a timeout.
		for i := 0; i < inFlight; i++ {
			if _, _, _, err := readMuxReq(conn); err != nil {
				return
			}
		}
	})
	c := dialFakeTimeout(t, f.addr(), 10*time.Second) // errors must beat this by a mile
	errs := make(chan error, inFlight)
	start := time.Now()
	for i := 0; i < inFlight; i++ {
		go func() { errs <- c.Ping(context.Background()) }()
	}
	for i := 0; i < inFlight; i++ {
		err := <-errs
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("in-flight call %d: want ErrTransport, got %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("in-flight errors took %v; want prompt failure", elapsed)
	}
	requireRecovers(t, c)
}

func TestMuxLateResponseAfterTimeoutIsDiscarded(t *testing.T) {
	release := make(chan struct{})
	f := startMuxFake(t, func(conn net.Conn, nconn int) {
		var hdr [muxFrameHdrSize]byte
		// Hold the first request's answer until released, then serve
		// normally — the connection must survive the caller's timeout.
		_, id, _, err := readMuxReq(conn)
		if err != nil {
			return
		}
		<-release
		writeMuxFrame(conn, StatusOK, id, 0, nil, &hdr)
		answerPings(conn)
	})
	c := dialMuxFake(t, f)
	reg := obs.NewRegistry()
	c.SetMetrics(reg)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Ping(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	close(release)
	// The late answer is discarded by request ID and the same connection
	// keeps serving — no redial.
	requireRecovers(t, c)
	deadline := time.Now().Add(2 * time.Second)
	for c.met.Load().late.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("late-response counter never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.met.Load().redials.Value(); got != 0 {
		t.Fatalf("late response should not cost a redial; redials = %d", got)
	}
}

// TestKeepaliveOutlivesServerIdleTimeout is the keepalive contract: a
// pooled connection left idle past the server's read deadline stays
// alive because the client pings it, so no redial is ever needed.
func TestKeepaliveOutlivesServerIdleTimeout(t *testing.T) {
	srv := NewServer(nil, nil)
	srv.SetIdleTimeout(150 * time.Millisecond)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx) }()
	defer func() { srv.Close(); <-done }()

	c := dialOpts(t, addr, ClientOptions{RequestTimeout: 2 * time.Second, Keepalive: 40 * time.Millisecond})
	defer c.Close()
	reg := obs.NewRegistry()
	c.SetMetrics(reg)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	// Several idle-timeout periods of client-side silence.
	time.Sleep(500 * time.Millisecond)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after idle period: %v", err)
	}
	if got := c.met.Load().redials.Value(); got != 0 {
		t.Fatalf("keepalive should have kept the connection alive; redials = %d", got)
	}
}

// TestKeepaliveDisabledConnectionIdlesOut is the control for the test
// above: with keepalives off, the server's idle deadline drops the
// connection and the next request transparently redials.
func TestKeepaliveDisabledConnectionIdlesOut(t *testing.T) {
	srv := NewServer(nil, nil)
	srv.SetIdleTimeout(100 * time.Millisecond)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx) }()
	defer func() { srv.Close(); <-done }()

	c := dialOpts(t, addr, ClientOptions{RequestTimeout: 2 * time.Second, Keepalive: -1})
	defer c.Close()
	reg := obs.NewRegistry()
	c.SetMetrics(reg)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	time.Sleep(400 * time.Millisecond)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after idle period: %v", err)
	}
	if got := c.met.Load().redials.Value(); got == 0 {
		t.Fatal("without keepalive the idle drop should have forced a redial")
	}
}

// TestMuxUnknownOpcodeStatusError: the server answers an unknown opcode
// with a status error naming it, counts it, and keeps the connection
// serving.
func TestMuxUnknownOpcodeStatusError(t *testing.T) {
	srv := NewServer(nil, nil)
	sreg := obs.NewRegistry()
	srv.SetMetrics(sreg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx) }()
	defer func() { srv.Close(); <-done }()

	c := dialOpts(t, addr, ClientOptions{RequestTimeout: 2 * time.Second})
	defer c.Close()
	reg := obs.NewRegistry()
	c.SetMetrics(reg)
	err = c.do(context.Background(), 0x7f, nil, nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote for unknown opcode, got %v", err)
	}
	if !strings.Contains(err.Error(), "unknown opcode") {
		t.Fatalf("error should name the unknown opcode, got %v", err)
	}
	// The status error came back on the same live connection.
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after unknown opcode: %v", err)
	}
	if got := c.met.Load().redials.Value(); got != 0 {
		t.Fatalf("unknown opcode must not cost the connection; redials = %d", got)
	}
	if got := srv.met.unknown.Value(); got != 1 {
		t.Fatalf("server unknown-op counter = %d, want 1", got)
	}
	// A retired opcode is as unknown as one never assigned.
	for _, op := range retiredOpcodes {
		if err := c.do(context.Background(), op, nil, nil); !errors.Is(err, ErrRemote) {
			t.Fatalf("retired opcode 0x%02x: want ErrRemote, got %v", op, err)
		}
	}
	if got, want := srv.met.unknown.Value(), uint64(1+len(retiredOpcodes)); got != want {
		t.Fatalf("server unknown-op counter = %d, want %d", got, want)
	}
}

// TestMuxFallbackTimeoutDoesNotKillConnection: a request that hits the
// client's fallback request timeout (no context deadline) gets a typed
// deadline error and the connection survives for later requests.
func TestMuxFallbackTimeoutTyped(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	f := startMuxFake(t, func(conn net.Conn, nconn int) {
		var hdr [muxFrameHdrSize]byte
		_, id, _, err := readMuxReq(conn)
		if err != nil {
			return
		}
		<-release
		writeMuxFrame(conn, StatusOK, id, 0, nil, &hdr)
		answerPings(conn)
	})
	c := dialFakeTimeout(t, f.addr(), 60*time.Millisecond)
	err := c.Ping(context.Background())
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want os.ErrDeadlineExceeded from fallback timeout, got %v", err)
	}
	if errors.Is(err, ErrTransport) {
		t.Fatalf("a timeout is not a retryable transport failure: %v", err)
	}
}
