package matchsvc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
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

// Client is a connection pool to the matching service. It is safe for
// concurrent use. Every connection opens with the OpHello handshake and
// then carries many requests concurrently, each routed back to its
// caller by request ID; SetPoolSize adds connections on top of that.
// After a transport failure — including the server dropping an idle
// connection at its read deadline — the pool evicts the dead
// connection and the next request dials a fresh one,
// so a long-lived client (e.g. a shard router front) survives quiet
// periods and server restarts. A background keepalive additionally
// pings idle pooled connections (SetKeepalive) so they are not idle
// from the server's point of view in the first place.
//
// Every request takes a context.Context: its deadline bounds the whole
// wire round trip — the time left travels in the request envelope, so
// the server stops working when it runs out — and cancellation
// interrupts or abandons in-flight I/O. When the context carries no
// deadline, the SetRequestTimeout fallback applies, on both ends. With
// SetRetry, idempotent requests that fail on a transport error are
// transparently retried with capped jittered exponential backoff;
// retries are off by default.
type Client struct {
	addr string

	mu          sync.Mutex
	dialTimeout time.Duration
	timeout     time.Duration
	retry       Retry
	met         *clientMetrics
	closed      bool
	keepalive   time.Duration
	// jitter drives retry backoff spreading; guarded by mu.
	jitter *rng.Source

	pool *pool
	stop chan struct{}
	kaWG sync.WaitGroup
}

// SetRequestTimeout sets the fallback round-trip bound used when a
// request's context has no deadline of its own; zero (the default)
// means no fallback deadline. Identification over a large gallery can
// legitimately take seconds — size the timeout to the gallery.
func (c *Client) SetRequestTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// SetRedialTimeout bounds the reconnects the pool performs after a
// transport failure, independently of the triggering request's
// context; zero (the default) leaves reconnects bounded by that context
// alone.
func (c *Client) SetRedialTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dialTimeout = d
}

// SetPoolSize sets how many connections the pool may hold (minimum 1,
// the default). Connections are dialed on demand, so a larger pool
// costs nothing until concurrency needs it.
func (c *Client) SetPoolSize(n int) {
	c.pool.resize(n)
}

// SetKeepalive sets the idle-connection ping interval; d <= 0 disables
// keepalives. The default (50s) sits under the server's default
// 2-minute idle deadline.
func (c *Client) SetKeepalive(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keepalive = d
}

func (c *Client) metrics() *clientMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.met
}

func (c *Client) requestTimeout() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timeout
}

func (c *Client) retryPolicy() Retry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retry
}

// DialContext connects to a server address under the given context: a
// pre-cancelled or expired context fails fast without touching the
// network, and cancellation mid-handshake aborts the dial. Reconnects
// after transport failures are bounded by the context of the request
// that triggers them.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("matchsvc: dial %s: %w", addr, err)
	}
	c := &Client{
		addr:      addr,
		keepalive: defaultKeepalive,
		jitter:    rng.New(0x9e3779b97f4a7c15).Child(addr),
		stop:      make(chan struct{}),
	}
	c.pool = newPool(c, 1)
	c.pool.seed(newWireConn(c, conn))
	c.kaWG.Add(1)
	go c.keepaliveLoop()
	return c, nil
}

// dialRaw opens one pool connection, bounded by the redial timeout
// when set (else the request-timeout fallback) and by ctx.
func (c *Client) dialRaw(ctx context.Context) (net.Conn, error) {
	c.mu.Lock()
	d := net.Dialer{Timeout: c.dialTimeout}
	if d.Timeout == 0 && c.timeout > 0 {
		// No redial timeout was set; without this, a deadline-free
		// request context would leave the reconnect bounded only by the
		// OS connect timeout.
		d.Timeout = c.timeout
	}
	c.mu.Unlock()
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, transportErr(fmt.Errorf("matchsvc: redial %s: %w", c.addr, err))
	}
	return conn, nil
}

// Close shuts the pool down; subsequent requests fail instead of
// redialling.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.pool.close()
	c.kaWG.Wait()
	return nil
}

// keepaliveLoop pings idle pooled connections so the server's idle
// deadline never fires on a healthy conn the pool intends to reuse.
// Only connections past their handshake are pinged — the first real
// request drives it under its own context.
func (c *Client) keepaliveLoop() {
	defer c.kaWG.Done()
	for {
		c.mu.Lock()
		interval := c.keepalive
		c.mu.Unlock()
		tick := interval / 2
		if interval <= 0 {
			tick = time.Second // disabled: just poll the setting
		} else if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
		t := time.NewTimer(tick)
		select {
		case <-c.stop:
			t.Stop()
			return
		case <-t.C:
		}
		if interval <= 0 {
			continue
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
			w.keepalivePing(ctx)
			cancel()
		}
	}
}

// roundTrip sends one non-idempotent request; roundTripIdem sends one
// the Retry policy may transparently replay after a transport failure.
func (c *Client) roundTrip(ctx context.Context, op byte, payload []byte, decode func(*enc.Reader) error) error {
	return c.do(ctx, op, payload, decode, false)
}

func (c *Client) roundTripIdem(ctx context.Context, op byte, payload []byte, decode func(*enc.Reader) error) error {
	return c.do(ctx, op, payload, decode, true)
}

// do runs one request under the retry policy. Only transport-class
// failures of idempotent operations are retried; ctx is re-checked
// between attempts and its error always outranks the transport error
// that a cancellation provoked.
func (c *Client) do(ctx context.Context, op byte, payload []byte, decode func(*enc.Reader) error, idempotent bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m := c.metrics()
	if m != nil {
		m.inflight.Inc()
		defer m.inflight.Dec()
	}
	pol := c.retryPolicy()
	attempts := 1
	if idempotent && pol.enabled() {
		attempts = pol.Attempts
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = c.callOnce(ctx, op, payload, decode)
		if err == nil || attempt >= attempts || !errors.Is(err, ErrTransport) {
			return err
		}
		if m != nil {
			m.retries.Inc()
		}
		if werr := c.backoff(ctx, pol, attempt); werr != nil {
			return werr
		}
	}
}

// callOnce checks a connection out for one attempt. A connection that
// turns out to have been retired before the request was written
// (errConnStale — e.g. the server idle-dropped it between checkouts)
// is replaced and the request replayed on a fresh conn: nothing
// reached the wire, so this is safe even for non-idempotent ops.
func (c *Client) callOnce(ctx context.Context, op byte, payload []byte, decode func(*enc.Reader) error) error {
	for stale := 0; ; stale++ {
		w, err := c.pool.checkout(ctx)
		if err != nil {
			return err
		}
		err = c.callOn(ctx, w, op, payload, decode)
		c.pool.checkin(w)
		if errors.Is(err, errConnStale) && stale < 2 && ctx.Err() == nil {
			continue
		}
		return err
	}
}

func (c *Client) callOn(ctx context.Context, w *wireConn, op byte, payload []byte, decode func(*enc.Reader) error) error {
	if err := w.negotiate(ctx); err != nil {
		if ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// Another caller's context drove the shared handshake and gave
			// up; that cancellation is not ours. Replay on a fresh conn.
			return errConnStale
		}
		return err
	}
	return w.muxCall(ctx, op, payload, decode)
}

// Ping checks liveness.
func (c *Client) Ping(ctx context.Context) error {
	return c.roundTripIdem(ctx, OpPing, nil, nil)
}

func decodeMatch(r *enc.Reader) (match.Result, error) {
	return match.Result{Score: r.Float64(), Matched: int(r.Uint32())}, r.Err()
}

// Match compares two templates on the server. Only the score and the
// matched-minutiae count cross the wire.
func (c *Client) Match(ctx context.Context, g, p *minutiae.Template) (match.Result, error) {
	fs := acquireFrameScratch()
	defer releaseFrameScratch(fs)
	if err := putTemplate(&fs.w, g); err != nil {
		return match.Result{}, err
	}
	if err := putTemplate(&fs.w, p); err != nil {
		return match.Result{}, err
	}
	var res match.Result
	err := c.roundTrip(ctx, OpMatch, fs.w.Buf, func(r *enc.Reader) (derr error) {
		res, derr = decodeMatch(r)
		return derr
	})
	return res, err
}

// Enroll registers a template under id.
func (c *Client) Enroll(ctx context.Context, id, deviceID string, tpl *minutiae.Template) error {
	fs := acquireFrameScratch()
	defer releaseFrameScratch(fs)
	if err := (Enrollment{ID: id, DeviceID: deviceID, Template: tpl}).AppendTo(&fs.w); err != nil {
		return err
	}
	return c.roundTrip(ctx, OpEnroll, fs.w.Buf, nil)
}

// enrollBatchBudget leaves headroom under the frame cap for the count
// prefix and per-item length framing.
const enrollBatchBudget = maxFrame - 4096

// EnrollBatch registers many templates in as few round trips as the
// 1 MiB frame cap allows. Batches are not atomic: on error, items from
// already-shipped chunks remain enrolled, and what the failing chunk
// left behind is up to the server's backend (see OpEnrollBatch) — a
// prefix on a plain store, nothing on a WAL-backed one, whole per-shard
// groups behind a front.
func (c *Client) EnrollBatch(ctx context.Context, items []Enrollment) error {
	return c.enrollBatchChunked(ctx, items, enrollBatchBudget)
}

// enrollBatchChunked is EnrollBatch with an explicit per-frame payload
// budget (separated out so tests can force multi-frame chunking without
// megabyte fixtures).
func (c *Client) enrollBatchChunked(ctx context.Context, items []Enrollment, budget int) error {
	encoded := make([][]byte, 0, len(items))
	size := 0
	flush := func() error {
		if len(encoded) == 0 {
			return nil
		}
		fs := acquireFrameScratch()
		defer releaseFrameScratch(fs)
		fs.w.Uint32(uint32(len(encoded)))
		for _, e := range encoded {
			fs.w.Buf = append(fs.w.Buf, e...)
		}
		var n uint32
		err := c.roundTrip(ctx, OpEnrollBatch, fs.w.Buf, func(r *enc.Reader) error {
			n = r.Uint32()
			return r.Err()
		})
		if err != nil {
			return err
		}
		if int(n) != len(encoded) {
			return fmt.Errorf("matchsvc: batch enrolled %d of %d items", n, len(encoded))
		}
		encoded = encoded[:0]
		size = 0
		return nil
	}
	for _, it := range items {
		var w enc.Writer
		if err := it.AppendTo(&w); err != nil {
			return err
		}
		if len(w.Buf) > budget {
			return fmt.Errorf("matchsvc: batch item %q of %d bytes exceeds frame budget", it.ID, len(w.Buf))
		}
		if size+len(w.Buf) > budget {
			if err := flush(); err != nil {
				return err
			}
		}
		encoded = append(encoded, w.Buf)
		size += len(w.Buf)
	}
	return flush()
}

// Verify compares a probe against one enrollment; like Match, the
// result carries the score and the matched-minutiae count.
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
	err := c.roundTripIdem(ctx, OpVerify, fs.w.Buf, func(r *enc.Reader) (derr error) {
		res, derr = decodeMatch(r)
		return derr
	})
	return res, err
}

// IdentifyEx searches the gallery and returns the top-k candidates
// (k <= 0 requests the full ranking) with the server's retrieval
// statistics: how large the gallery was, how many candidates the
// triplet index shortlisted, and whether the indexed path served the
// search.
func (c *Client) IdentifyEx(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	fs := acquireFrameScratch()
	defer releaseFrameScratch(fs)
	fs.w.Uint32(uint32(k))
	if err := putTemplate(&fs.w, probe); err != nil {
		return nil, gallery.IdentifyStats{}, err
	}
	var stats gallery.IdentifyStats
	var cands []gallery.Candidate
	err := c.roundTripIdem(ctx, OpIdentifyEx, fs.w.Buf, func(r *enc.Reader) error {
		stats.GallerySize = int(r.Uint32())
		stats.Shortlist = int(r.Uint32())
		stats.Scanned = int(r.Uint32())
		stats.Indexed = r.Uint32() != 0
		var derr error
		cands, derr = decodeCandidates(r)
		return derr
	})
	if err != nil {
		return nil, gallery.IdentifyStats{}, err
	}
	return cands, stats, nil
}

func decodeCandidates(r *enc.Reader) ([]gallery.Candidate, error) {
	// A candidate occupies at least 12 payload bytes (two empty strings
	// and a float64).
	out := make([]gallery.Candidate, r.Count(12))
	for i := range out {
		out[i] = gallery.Candidate{ID: r.String(), DeviceID: r.String(), Score: r.Float64()}
	}
	return out, r.Err()
}

// Remove deletes an enrollment.
func (c *Client) Remove(ctx context.Context, id string) error {
	fs := acquireFrameScratch()
	defer releaseFrameScratch(fs)
	if err := fs.w.String(id); err != nil {
		return err
	}
	return c.roundTrip(ctx, OpRemove, fs.w.Buf, nil)
}

// ServiceStats returns the server's service-level summary: topology,
// index state, and — when the serving process is durable — its WAL
// recovery and log-size detail.
func (c *Client) ServiceStats(ctx context.Context) (ServiceStats, error) {
	var st ServiceStats
	err := c.roundTripIdem(ctx, OpStats, nil, func(r *enc.Reader) (derr error) {
		st, derr = decodeServiceStats(r)
		return derr
	})
	return st, err
}

// Len returns the number of enrollments.
func (c *Client) Len(ctx context.Context) (int, error) {
	var n uint32
	err := c.roundTripIdem(ctx, OpCount, nil, func(r *enc.Reader) error {
		n = r.Uint32()
		return r.Err()
	})
	if err != nil {
		return 0, err
	}
	return int(n), nil
}
