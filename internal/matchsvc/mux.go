package matchsvc

// The multiplexed connection. One wireConn carries many concurrent
// requests: callers seal their request under a fresh request ID, a
// single demux reader goroutine routes each response frame to the
// waiter that owns its ID, and a group-flushed buffered writer
// coalesces frames queued by concurrent callers into fewer syscalls.
// Every connection opens with the OpHello handshake; a peer that does
// not answer it with version 3 is not spoken to.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fpinterop/internal/enc"
)

// muxWriteTimeout bounds a single frame write on a multiplexed
// connection when the caller's context carries no tighter deadline: the
// write mutex is shared by every in-flight call, so one peer that stops
// draining must fail the connection rather than wedge the pool slot.
const muxWriteTimeout = 30 * time.Second

// errConnStale classifies a request that never reached the wire because
// its connection had already been retired (server idle drop, another
// caller's failure). The pool checks out a fresh connection and
// replays the request — nothing reached the wire.
var errConnStale = fmt.Errorf("%w: connection retired before send", ErrTransport)

// errConnRetired retires a connection without a more specific cause
// (pool shutdown, a deadline yanked by another caller's cancellation).
// Unlike errConnStale it may reach calls whose request was already on
// the wire, so it is never replayed outside the Retry policy.
var errConnRetired = fmt.Errorf("%w: connection retired", ErrTransport)

// muxResult is one response frame routed to its waiter, or the
// connection-level failure that retired all waiters.
type muxResult struct {
	status byte
	body   []byte
	err    error
}

// wireConn is one pooled connection.
type wireConn struct {
	nc net.Conn
	c  *Client

	// The handshake runs once, driven by the first caller; nego flips
	// when it has finished (successfully or not).
	negoOnce sync.Once
	negoErr  error
	nego     atomic.Bool

	// wmu serializes frame writes into bw; queued counts writers
	// waiting on wmu so the last one in a burst flushes for the whole
	// group.
	wmu    sync.Mutex
	bw     *bufio.Writer
	whdr   [muxFrameHdrSize]byte
	queued atomic.Int32

	// pmu guards the waiter table and death state.
	pmu     sync.Mutex
	pending map[uint64]chan muxResult
	dead    bool
	deadErr error
	nextID  atomic.Uint64

	// refs counts pool checkouts; lastUsed is the unixnano of the last
	// checkin, consulted by the keepalive loop.
	refs     atomic.Int32
	lastUsed atomic.Int64
}

func newWireConn(c *Client, nc net.Conn) *wireConn {
	w := &wireConn{nc: nc, c: c}
	w.touch()
	return w
}

func (w *wireConn) touch() { w.lastUsed.Store(time.Now().UnixNano()) }

func (w *wireConn) isDead() bool {
	w.pmu.Lock()
	defer w.pmu.Unlock()
	return w.dead
}

// kill retires the connection with err: the socket closes (unblocking
// the demux reader and any in-flight I/O) and every pending waiter
// receives the error promptly. First failure wins.
func (w *wireConn) kill(err error) {
	w.pmu.Lock()
	if w.dead {
		w.pmu.Unlock()
		return
	}
	w.dead = true
	w.deadErr = err
	pend := w.pending
	w.pending = nil
	w.pmu.Unlock()
	w.nc.Close()
	for _, ch := range pend {
		ch <- muxResult{err: err}
	}
}

// close retires the connection without an error to report (pool
// shutdown or eviction of an already-dead conn).
func (w *wireConn) close() { w.kill(errConnRetired) }

// armDeadline bounds the handshake's blocking I/O: the context's
// deadline (padded so the watcher below always outruns it), else the
// client's fallback request timeout, else no deadline. A cancellable
// context is watched for the duration of the handshake; cancellation
// yanks the deadline to interrupt blocked I/O. The returned disarm must
// run before the handshake returns — a watcher that already started may
// yank the deadline late, so the connection is retired rather than let
// a later request race it.
func (w *wireConn) armDeadline(ctx context.Context) (disarm func(), err error) {
	var deadline time.Time // zero: no deadline
	if d, ok := ctx.Deadline(); ok {
		deadline = d.Add(10 * time.Millisecond)
	} else if t := w.c.requestTimeout(); t > 0 {
		deadline = time.Now().Add(t)
	}
	if err := w.nc.SetDeadline(deadline); err != nil {
		return nil, fmt.Errorf("matchsvc: set deadline: %w", err)
	}
	if ctx.Done() == nil {
		return func() {}, nil
	}
	nc := w.nc
	stop := context.AfterFunc(ctx, func() { nc.SetDeadline(time.Now()) })
	return func() {
		if !stop() {
			w.kill(errConnRetired)
		}
	}, nil
}

// negotiate runs the handshake, driven by the first caller under its
// context; concurrent callers wait on the same handshake and share its
// outcome.
func (w *wireConn) negotiate(ctx context.Context) error {
	w.negoOnce.Do(func() {
		w.negoErr = w.doHello(ctx)
		w.nego.Store(true)
	})
	return w.negoErr
}

// negotiated reports whether the handshake has completed (the keepalive
// loop leaves it to the first real request).
func (w *wireConn) negotiated() bool { return w.nego.Load() }

// doHello performs the version handshake — the only bare (envelope-free,
// so checksum-free) exchange on the connection. Only StatusOK carrying
// version 3 starts the demux reader; any other reply, including one
// damaged in transit, retires the connection with a transport error and
// the caller redials.
func (w *wireConn) doHello(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		w.kill(errConnRetired)
		return err
	}
	disarm, err := w.armDeadline(ctx)
	if err != nil {
		err = transportErr(err)
		w.kill(err)
		return err
	}
	defer disarm()
	fail := func(err error) error {
		err = transportErr(err)
		w.kill(err)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}
	if err := writeFrame(w.nc, OpHello, helloVersion[:]); err != nil {
		return fail(err)
	}
	status, resp, err := readFrame(w.nc)
	if err != nil {
		return fail(fmt.Errorf("matchsvc: read hello response: %w", err))
	}
	r := enc.Reader{Buf: resp}
	if v := r.Uint32(); status != StatusOK || r.Err() != nil || v != protoMuxed {
		return fail(fmt.Errorf("matchsvc: hello answered status 0x%02x version %d (%v), want version %d", status, v, r.Err(), protoMuxed))
	}
	// The demux reader owns the read side from here and blocks freely
	// between responses; per-call bounds move to each waiter's context,
	// so the handshake deadline must not linger.
	if err := w.nc.SetDeadline(time.Time{}); err != nil {
		return fail(fmt.Errorf("matchsvc: clear deadline: %w", err))
	}
	w.bw = bufio.NewWriterSize(w.nc, 32*1024)
	w.pmu.Lock()
	if w.dead {
		w.pmu.Unlock()
		return fail(errors.New("matchsvc: connection retired during handshake"))
	}
	w.pending = make(map[uint64]chan muxResult)
	w.pmu.Unlock()
	go w.readLoop()
	return nil
}

// readLoop is the demux reader: it routes each response frame to the
// waiter owning its request ID. Any framing, checksum, or unknown-ID
// violation retires the connection — every in-flight call then gets a
// prompt typed error and the pool replaces the conn on next checkout.
func (w *wireConn) readLoop() {
	var hdr [5]byte
	for {
		status, payload, err := readFrameHdr(w.nc, &hdr)
		if err != nil {
			w.kill(transportErr(fmt.Errorf("matchsvc: read response: %w", err)))
			return
		}
		id, _, body, err := openMuxEnvelope(status, payload)
		if err != nil {
			w.kill(transportErr(err))
			return
		}
		if id == 0 || id > w.nextID.Load() {
			// An ID this client never issued: the server (or something
			// between) is off the rails; nothing on this stream can be
			// trusted to be the answer to the right question.
			w.kill(transportErr(fmt.Errorf("matchsvc: response carries unknown request id %d", id)))
			return
		}
		w.pmu.Lock()
		ch := w.pending[id]
		delete(w.pending, id)
		w.pmu.Unlock()
		if ch == nil {
			// A late answer to an abandoned call. Routing by ID makes it
			// safely discardable and the connection survives.
			if m := w.c.metrics(); m != nil {
				m.late.Inc()
			}
			continue
		}
		if m := w.c.metrics(); m != nil {
			m.respBytes.Observe(int64(len(body)))
		}
		ch <- muxResult{status: status, body: body}
	}
}

// forget abandons a waiter (its caller gave up before the response).
func (w *wireConn) forget(id uint64) {
	w.pmu.Lock()
	delete(w.pending, id)
	w.pmu.Unlock()
}

// writeMux queues one sealed frame. Writes from concurrent callers
// serialize under wmu into the buffered writer; a writer with nobody
// queued behind it flushes for the whole burst, so depth-N traffic
// coalesces into far fewer syscalls than N. A write failure retires the
// connection — a partial frame may already be on the wire, after which
// nothing framed can follow it.
func (w *wireConn) writeMux(ctx context.Context, op byte, id uint64, budget uint32, body []byte) error {
	w.queued.Add(1)
	w.wmu.Lock()
	w.queued.Add(-1)
	defer w.wmu.Unlock()
	if w.isDead() {
		return errConnStale
	}
	deadline := time.Now().Add(muxWriteTimeout)
	if d, ok := ctx.Deadline(); ok {
		if padded := d.Add(10 * time.Millisecond); padded.Before(deadline) {
			deadline = padded
		}
	}
	// SetWriteDeadline cannot disturb the demux reader, whose read side
	// is deadline-free.
	if err := w.nc.SetWriteDeadline(deadline); err != nil {
		err = transportErr(err)
		w.kill(err)
		return err
	}
	err := writeMuxFrame(w.bw, op, id, budget, body, &w.whdr)
	if err == nil && w.queued.Load() == 0 {
		err = w.bw.Flush()
	}
	if err != nil {
		err = transportErr(err)
		w.kill(err)
		return err
	}
	return nil
}

// wireBudget is the envelope's budget for a request sent now: the time
// left to the context's deadline, else the fallback request timeout, in
// milliseconds rounded up — the server's allowance must not run out
// before the caller's own clock does, or a hop's health tracker would
// see a server error where the truth is "the caller gave up". 0 means
// unbounded, so an already-expired deadline still travels as 1.
func wireBudget(ctx context.Context, fallback time.Duration) uint32 {
	left := fallback
	if d, ok := ctx.Deadline(); ok {
		left = max(time.Until(d), 1)
	}
	if left <= 0 {
		return 0
	}
	return uint32(min((left+time.Millisecond-1)/time.Millisecond, math.MaxUint32))
}

// muxCall runs one request over the multiplexed connection: register a
// waiter, seal and send (the envelope tells the server how long this
// caller will wait), then wait for the demux reader (or the caller's
// context, or the fallback request timeout). A caller that gives up
// deregisters its waiter and leaves the connection healthy — its late
// response is discarded by ID, and the server has already stopped
// working on it.
func (w *wireConn) muxCall(ctx context.Context, op byte, payload []byte, decode func(*enc.Reader) error) error {
	var fallback time.Duration
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		fallback = w.c.requestTimeout()
	}
	id := w.nextID.Add(1)
	ch := make(chan muxResult, 1)
	w.pmu.Lock()
	if w.dead || w.pending == nil {
		w.pmu.Unlock()
		return errConnStale
	}
	w.pending[id] = ch
	w.pmu.Unlock()
	if m := w.c.metrics(); m != nil {
		m.reqBytes.Observe(int64(len(payload)))
	}
	if err := w.writeMux(ctx, op, id, wireBudget(ctx, fallback), payload); err != nil {
		w.forget(id)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}
	var timerC <-chan time.Time
	if fallback > 0 {
		timer := time.NewTimer(fallback)
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case res := <-ch:
		err := res.err
		if err == nil {
			err = decodeResponse(res.status, res.body, decode)
		}
		if err == nil {
			return nil
		}
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			// The server's "budget expired" reply overtook this caller's
			// own deadline timer, which is due: let it fire, so every
			// layer above reads the same ctx.Err() this call returns.
			<-ctx.Done()
		}
		if cerr := ctx.Err(); cerr != nil {
			// The caller gave up, and that outranks whatever the giving-up
			// provoked (connection loss, the server stopping work).
			return cerr
		}
		return err
	case <-ctx.Done():
		w.forget(id)
		return ctx.Err()
	case <-timerC:
		w.forget(id)
		return fmt.Errorf("matchsvc: request timed out after %v: %w", fallback, os.ErrDeadlineExceeded)
	}
}

// remoteError is a failure the server reported: its message for humans,
// and the sentinel its status byte named (nil for plain StatusError).
// It reads as ErrRemote plus the message, whatever the status, and
// matches both ErrRemote and the sentinel under errors.Is — however
// many hops the failure has crossed.
type remoteError struct {
	msg      string
	sentinel error
}

func (e *remoteError) Error() string { return ErrRemote.Error() + ": " + e.msg }

func (e *remoteError) Unwrap() []error {
	if e.sentinel == nil {
		return []error{ErrRemote}
	}
	return []error{ErrRemote, e.sentinel}
}

// decodeResponse interprets a response's status and payload.
func decodeResponse(status byte, resp []byte, decode func(*enc.Reader) error) error {
	r := enc.Reader{Buf: resp}
	if status == StatusOK {
		if decode == nil {
			return nil
		}
		return decode(&r)
	}
	var sentinel error
	for _, s := range statusSentinels {
		if s.status == status {
			sentinel = s.err
		}
	}
	if sentinel == nil && status != StatusError {
		return fmt.Errorf("matchsvc: unknown status 0x%02x", status)
	}
	msg := r.String()
	if r.Err() != nil {
		msg = "(malformed error payload)"
	}
	return &remoteError{msg: msg, sentinel: sentinel}
}

// keepalivePing best-effort pings the connection so a server's idle
// deadline does not silently kill a healthy pooled conn.
func (w *wireConn) keepalivePing(ctx context.Context) {
	if !w.negotiated() || w.isDead() {
		return
	}
	_ = w.muxCall(ctx, OpPing, nil, nil)
	w.touch()
}
