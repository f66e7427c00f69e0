package matchsvc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fpinterop/internal/enc"
	"fpinterop/internal/gallery"
	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/rng"
)

// defaultKeepalive spaces the idle-connection pings; it must sit well
// under the server's 2-minute default idle deadline so a quiet pooled
// connection is never silently dropped between requests.
const defaultKeepalive = 50 * time.Second

// keepalivePingTimeout bounds one background keepalive ping.
const keepalivePingTimeout = 5 * time.Second

// ClientOptions configures a Client, once, at Dial; the zero value is
// the defaults.
type ClientOptions struct {
	// RequestTimeout is the fallback round-trip bound used when a
	// request's context has no deadline of its own; zero means no
	// fallback. Identification over a large gallery can legitimately
	// take seconds — size the timeout to the gallery.
	RequestTimeout time.Duration
	// RedialTimeout bounds one connection attempt — TCP connect plus
	// handshake — on top of the context of the caller that triggers it;
	// zero falls back to RequestTimeout, so that a deadline-free context
	// does not leave a connect bounded only by the OS.
	RedialTimeout time.Duration
	// PoolSize is how many connections the pool may hold; 0 and 1 both
	// mean one, the default. Connections beyond the first are dialed on
	// demand, so a larger pool costs nothing until concurrency needs it.
	PoolSize int
	// Retry re-sends idempotent requests after transport failures; off
	// by default.
	Retry Retry
	// Keepalive is the idle-connection ping interval: zero is the 50s
	// default, which sits under the server's default 2-minute idle
	// deadline; negative disables keepalives.
	Keepalive time.Duration
}

// Validate rejects a negative pool size, retry field or timeout;
// Keepalive is the one field whose negative values mean something.
func (o ClientOptions) Validate() error {
	if o.PoolSize < 0 || o.RequestTimeout < 0 || o.RedialTimeout < 0 ||
		o.Retry.Attempts < 0 || o.Retry.BaseDelay < 0 || o.Retry.MaxDelay < 0 {
		return fmt.Errorf("matchsvc: pool size, retry fields and timeouts must be >= 0, got %+v", o)
	}
	return nil
}

// Client is a connection pool to the matching service. It is safe for
// concurrent use and immutable once dialed. Every connection completes
// the OpHello handshake before the pool holds it and then carries many
// requests concurrently, each routed back to its caller by request ID;
// ClientOptions.PoolSize adds connections on top of that. After a
// transport failure — including the server dropping an idle connection
// at its read deadline — the pool evicts the dead connection and the
// next request dials and negotiates a fresh one, so a long-lived client
// (e.g. a shard router front) survives quiet periods and server
// restarts. A background keepalive additionally pings idle pooled
// connections (ClientOptions.Keepalive) so they are not idle from the
// server's point of view in the first place.
//
// Every request takes a context.Context: its deadline bounds the whole
// wire round trip — the time left travels in the request envelope, so
// the server stops working when it runs out — and cancellation
// interrupts or abandons in-flight I/O. When the context carries no
// deadline, the ClientOptions.RequestTimeout fallback applies, on both
// ends. With ClientOptions.Retry, idempotent requests that fail on a
// transport error are transparently retried with capped jittered
// exponential backoff; retries are off by default.
type Client struct {
	addr string
	opts ClientOptions
	met  atomic.Pointer[clientMetrics]

	pool      *pool
	stop      chan struct{}
	closeOnce sync.Once
	kaWG      sync.WaitGroup

	// jitter drives retry backoff spreading; guarded by jmu.
	jmu    sync.Mutex
	jitter *rng.Source
}

// DialContext is Dial with the default options.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	return Dial(ctx, addr, ClientOptions{})
}

// Dial connects to a server address and completes the handshake under
// the given context: a pre-cancelled or expired context fails fast
// without touching the network, and cancellation mid-handshake aborts
// the dial. A peer that does not answer the hello with version 3 fails
// the dial with ErrTransport. Reconnects after transport failures run
// the same way under the context of the request that triggers them.
func Dial(ctx context.Context, addr string, opts ClientOptions) (*Client, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Keepalive == 0 {
		opts.Keepalive = defaultKeepalive
	}
	c := &Client{
		addr:   addr,
		opts:   opts,
		jitter: rng.New(0x9e3779b97f4a7c15).Child(addr),
		stop:   make(chan struct{}),
	}
	w, err := c.connect(ctx)
	if err != nil {
		return nil, err
	}
	c.pool = newPool(c, opts.PoolSize, w)
	if opts.Keepalive > 0 {
		c.kaWG.Add(1)
		go c.keepaliveLoop(opts.Keepalive)
	}
	return c, nil
}

// connect opens one pool connection: TCP connect, then the version
// handshake — the only bare (envelope-free, so checksum-free) exchange
// on the connection. Only StatusOK carrying version 3 yields a
// connection; any other reply, including one damaged in transit, closes
// the socket with a transport error. Both steps are bounded by ctx and
// by the redial timeout (else the request-timeout fallback): when
// either ends, the socket closes, which interrupts blocked I/O.
func (c *Client) connect(ctx context.Context) (*wireConn, error) {
	timeout := c.opts.RedialTimeout
	if timeout == 0 {
		timeout = c.opts.RequestTimeout
	}
	dctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	fail := func(err error) (*wireConn, error) {
		if cerr := ctx.Err(); cerr != nil {
			// The caller gave up, and that outranks what it provoked.
			return nil, cerr
		}
		if dctx.Err() != nil {
			err = fmt.Errorf("gave up after %v", timeout)
		}
		return nil, transportErr(fmt.Errorf("matchsvc: dial %s: %w", c.addr, err))
	}
	var d net.Dialer
	nc, err := d.DialContext(dctx, "tcp", c.addr)
	if err != nil {
		return fail(err)
	}
	stop := context.AfterFunc(dctx, func() { nc.Close() })
	err = hello(nc)
	if !stop() && err == nil {
		// The watcher already ran: the socket is closed (or about to be)
		// under a handshake that just completed.
		err = errors.New("connection abandoned during handshake")
	}
	if err != nil {
		nc.Close()
		return fail(err)
	}
	return newWireConn(c, nc), nil
}

// hello runs the client's half of the handshake on a fresh socket.
func hello(nc net.Conn) error {
	if err := writeFrame(nc, OpHello, helloVersion[:]); err != nil {
		return err
	}
	status, resp, err := readFrame(nc)
	if err != nil {
		return fmt.Errorf("read hello response: %w", err)
	}
	r := enc.Reader{Buf: resp}
	if v := r.Uint32(); status != StatusOK || r.Err() != nil || v != protoMuxed {
		return fmt.Errorf("hello answered status 0x%02x version %d (%v), want version %d", status, v, r.Err(), protoMuxed)
	}
	return nil
}

// Close shuts the pool down; subsequent requests fail instead of
// redialling.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		close(c.stop)
		c.pool.close()
		c.kaWG.Wait()
	})
	return nil
}

// keepaliveLoop pings idle pooled connections so the server's idle
// deadline never fires on a healthy conn the pool intends to reuse.
func (c *Client) keepaliveLoop(interval time.Duration) {
	defer c.kaWG.Done()
	tick := max(interval/2, 10*time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		for _, w := range c.pool.snapshot() {
			if w.refs.Load() != 0 {
				// Checked out: live traffic is its keepalive.
				continue
			}
			if time.Since(time.Unix(0, w.lastUsed.Load())) < tick {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), keepalivePingTimeout) //fpvet:allow ctxflow background maintenance loop with no caller context; the timeout above bounds it
			_ = w.muxCall(ctx, OpPing, nil, nil)
			cancel()
			w.touch()
		}
	}
}

// do runs one request: check a connection out, send, wait. Two kinds of
// failure send it round again. A connection that turns out to have been
// retired before the request was written (errConnStale — e.g. the
// server idle-dropped it between checkouts) is replaced and the request
// replayed, at most twice per attempt: nothing reached the wire, so
// this is safe even for non-idempotent ops. Any other transport-class
// failure of an idempotent operation is retried under the Retry policy.
// ctx is re-checked between rounds and its error always outranks the
// transport error that a cancellation provoked.
func (c *Client) do(ctx context.Context, op byte, payload []byte, decode func(*enc.Reader) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m := c.met.Load()
	if m != nil {
		m.inflight.Inc()
		defer m.inflight.Dec()
	}
	attempts := 1
	if int(op) < numOps && ops[op].idempotent && c.opts.Retry.enabled() {
		attempts = c.opts.Retry.Attempts
	}
	for attempt, stale := 1, 0; ; {
		w, err := c.pool.checkout(ctx)
		if err == nil {
			err = w.muxCall(ctx, op, payload, decode)
			c.pool.checkin(w)
		}
		switch {
		case errors.Is(err, errConnStale) && stale < 2 && ctx.Err() == nil:
			stale++
		case attempt < attempts && errors.Is(err, ErrTransport):
			if m != nil {
				m.retries.Inc()
			}
			if werr := c.backoff(ctx, attempt); werr != nil {
				return werr
			}
			attempt, stale = attempt+1, 0
		default:
			return err
		}
	}
}

// Ping checks liveness.
func (c *Client) Ping(ctx context.Context) error {
	return c.do(ctx, OpPing, nil, nil)
}

func decodeMatch(r *enc.Reader) (match.Result, error) {
	return match.Result{Score: r.Float64(), Matched: int(r.Uint32())}, r.Err()
}

// EnrollBatch registers many templates in as few round trips as the
// 1 MiB frame cap allows. Batches are not atomic: on error, items from
// already-shipped chunks remain enrolled, and what the failing chunk
// left behind is up to the server's backend (see OpEnrollBatch) — a
// prefix on a plain store, nothing on a WAL-backed one, whole per-shard
// groups behind a front.
func (c *Client) EnrollBatch(ctx context.Context, items []Enrollment) error {
	return c.enrollBatchChunked(ctx, items, pageBudget)
}

// enrollBatchChunked is EnrollBatch with an explicit per-frame payload
// budget (separated out so tests can force multi-frame chunking without
// megabyte fixtures): each round packs as many of the remaining items
// as fit straight into the frame and ships it.
func (c *Client) enrollBatchChunked(ctx context.Context, items []Enrollment, budget int) error {
	fs := acquireFrameScratch()
	defer releaseFrameScratch(fs)
	for len(items) > 0 {
		fs.w.Buf = fs.w.Buf[:0]
		sent, err := packPage(&fs.w, budget, len(items), func(i int) (string, error) {
			return items[i].ID, items[i].AppendTo(&fs.w)
		})
		if err != nil {
			return err
		}
		var n uint32
		err = c.do(ctx, OpEnrollBatch, fs.w.Buf, func(r *enc.Reader) error {
			n = r.Uint32()
			return r.Err()
		})
		if err != nil {
			return err
		}
		if int(n) != sent {
			return fmt.Errorf("matchsvc: batch enrolled %d of %d items", n, sent)
		}
		items = items[sent:]
	}
	return nil
}

// Verify compares a probe against one enrollment. Only the score and
// the matched-minutiae count cross the wire.
func (c *Client) Verify(ctx context.Context, id string, probe *minutiae.Template) (match.Result, error) {
	fs := acquireFrameScratch()
	defer releaseFrameScratch(fs)
	if err := fs.w.String(id); err != nil {
		return match.Result{}, err
	}
	if err := putTemplate(&fs.w, probe); err != nil {
		return match.Result{}, err
	}
	var res match.Result
	err := c.do(ctx, OpVerify, fs.w.Buf, func(r *enc.Reader) (derr error) {
		res, derr = decodeMatch(r)
		return derr
	})
	return res, err
}

// IdentifyEx searches the gallery and returns the top-k candidates
// (k <= 0 requests the full ranking) with the server's statistics: how
// large the gallery was, how many candidates the triplet index
// shortlisted, whether the indexed path served the search, and how
// many stores behind the server were queried, skipped or failed.
func (c *Client) IdentifyEx(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	fs := acquireFrameScratch()
	defer releaseFrameScratch(fs)
	fs.w.Uint32(uint32(k))
	if err := putTemplate(&fs.w, probe); err != nil {
		return nil, gallery.IdentifyStats{}, err
	}
	var cands []gallery.Candidate
	var stats gallery.IdentifyStats
	err := c.do(ctx, OpIdentifyEx, fs.w.Buf, func(r *enc.Reader) (derr error) {
		cands, stats, derr = decodeIdentify(r)
		return derr
	})
	return cands, stats, err
}

// Remove deletes an enrollment.
func (c *Client) Remove(ctx context.Context, id string) error {
	fs := acquireFrameScratch()
	defer releaseFrameScratch(fs)
	if err := fs.w.String(id); err != nil {
		return err
	}
	return c.do(ctx, OpRemove, fs.w.Buf, nil)
}

// ServiceStats returns the server's service-level summary: topology,
// index state, and — when the serving process is durable — its WAL
// recovery and log-size detail.
func (c *Client) ServiceStats(ctx context.Context) (ServiceStats, error) {
	var st ServiceStats
	err := c.do(ctx, OpStats, nil, func(r *enc.Reader) (derr error) {
		st, derr = decodeServiceStats(r)
		return derr
	})
	return st, err
}

// Len returns the number of enrollments.
func (c *Client) Len(ctx context.Context) (int, error) {
	var n uint32
	err := c.do(ctx, OpCount, nil, func(r *enc.Reader) error {
		n = r.Uint32()
		return r.Err()
	})
	if err != nil {
		return 0, err
	}
	return int(n), nil
}
