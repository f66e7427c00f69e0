package matchsvc

// The multiplexed connection. One wireConn carries many concurrent
// requests: callers seal their request under a fresh request ID, a
// single demux reader goroutine routes each response frame to the
// waiter that owns its ID, and a group-flushed buffered writer
// coalesces frames queued by concurrent callers into fewer syscalls.
// A wireConn exists only after the OpHello handshake (Client.connect),
// so it is live or dead and nothing else.

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

// muxFrameTimeout bounds a single frame on a client's multiplexed
// connection: its write, when the caller's context carries no tighter
// deadline, and a response's arrival once its header has. The write
// mutex is shared by every in-flight call and one demux reader serves
// them all, so a peer that stops draining, or a corrupted length prefix
// that leaves the reader waiting for bytes that never come, must fail
// the connection rather than wedge the pool slot.
const muxFrameTimeout = 30 * time.Second

// errConnStale classifies a request that never reached the wire because
// its connection had already been retired (server idle drop, another
// caller's failure). The client checks out a fresh connection and
// replays the request — nothing reached the wire.
var errConnStale = fmt.Errorf("%w: connection retired before send", ErrTransport)

// errConnRetired retires a connection without a more specific cause
// (pool shutdown). Unlike errConnStale it may reach calls whose request
// was already on the wire, so it is never replayed outside the Retry
// policy.
var errConnRetired = fmt.Errorf("%w: connection retired", ErrTransport)

// muxWriter is the write half of a negotiated connection, the same on
// both ends. Writes from concurrent callers serialize under mu into the
// buffered writer; queued counts writers waiting on mu, and a writer
// with nobody queued behind it flushes for the whole burst, so depth-N
// traffic coalesces into far fewer syscalls than N.
type muxWriter struct {
	nc net.Conn
	// timeout bounds one frame write (0 = unbounded), counted from the
	// moment the writer holds mu.
	timeout time.Duration
	closed  atomic.Bool

	mu     sync.Mutex
	bw     *bufio.Writer
	hdr    [muxFrameHdrSize]byte
	queued atomic.Int32
}

func newMuxWriter(nc net.Conn, timeout time.Duration) *muxWriter {
	return &muxWriter{nc: nc, timeout: timeout, bw: bufio.NewWriterSize(nc, 32*1024)}
}

// close closes the socket — unblocking the peer's reader, ours, and any
// in-flight I/O — and refuses every later frame.
func (m *muxWriter) close() {
	m.closed.Store(true)
	m.nc.Close()
}

// write queues one sealed frame, due by notAfter when that is set and
// tighter than the writer's own timeout. After close it returns
// errConnStale with nothing written. A write failure closes the
// connection: a partial frame may already be on the wire, after which
// nothing framed can follow it, and closing fails the read side too,
// which is the only safe recovery.
func (m *muxWriter) write(notAfter time.Time, op byte, id uint64, budget uint32, body []byte) error {
	m.queued.Add(1)
	m.mu.Lock()
	m.queued.Add(-1)
	defer m.mu.Unlock()
	if m.closed.Load() {
		return errConnStale
	}
	var deadline time.Time // zero: no deadline
	if m.timeout > 0 {
		deadline = time.Now().Add(m.timeout)
	}
	if !notAfter.IsZero() && (deadline.IsZero() || notAfter.Before(deadline)) {
		deadline = notAfter
	}
	// SetWriteDeadline cannot disturb a demux reader, whose read side
	// keeps its own deadline or none.
	err := m.nc.SetWriteDeadline(deadline)
	if err == nil {
		err = writeMuxFrame(m.bw, op, id, budget, body, &m.hdr)
	}
	if err == nil && m.queued.Load() == 0 {
		err = m.bw.Flush()
	}
	if err != nil {
		m.close()
	}
	return err
}

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
	mw *muxWriter

	// pmu guards the waiter table and death state.
	pmu     sync.Mutex
	pending map[uint64]chan muxResult
	dead    bool
	nextID  atomic.Uint64

	// refs counts pool checkouts; lastUsed is the unixnano of the last
	// checkin, consulted by the keepalive loop.
	refs     atomic.Int32
	lastUsed atomic.Int64
}

// newWireConn wraps a socket whose handshake has succeeded and starts
// its demux reader, which owns the read side from here and blocks
// freely between responses; per-call bounds are each waiter's context,
// and a response that has begun must finish within muxFrameTimeout.
func newWireConn(c *Client, nc net.Conn) *wireConn {
	w := &wireConn{
		nc:      nc,
		c:       c,
		mw:      newMuxWriter(nc, muxFrameTimeout),
		pending: make(map[uint64]chan muxResult),
	}
	w.touch()
	go w.readLoop()
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
	pend := w.pending
	w.pending = nil
	w.pmu.Unlock()
	w.mw.close()
	for _, ch := range pend {
		ch <- muxResult{err: err}
	}
}

// close retires the connection without an error to report (pool
// shutdown).
func (w *wireConn) close() { w.kill(errConnRetired) }

// readLoop is the demux reader: it routes each response frame to the
// waiter owning its request ID. Any framing, checksum, or unknown-ID
// violation retires the connection — every in-flight call then gets a
// prompt typed error and the pool replaces the conn on next checkout.
func (w *wireConn) readLoop() {
	var hdr [5]byte
	fr := frameReader{nc: w.nc, timeout: muxFrameTimeout}
	for {
		status, payload, err := fr.read(&hdr)
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
			if m := w.c.met.Load(); m != nil {
				m.late.Inc()
			}
			continue
		}
		if m := w.c.met.Load(); m != nil {
			m.respBytes.Observe(int64(len(body)))
		}
		ch <- muxResult{status: status, body: body}
	}
}

// frameReader is the demux reader's view of its socket: unbounded
// until a frame's header has arrived, then the rest of the frame must
// arrive within timeout.
type frameReader struct {
	nc      net.Conn
	timeout time.Duration
	// hdr counts the current frame's header bytes still due.
	hdr int
}

// read returns the next frame, as readFrameHdr does.
func (r *frameReader) read(hdr *[5]byte) (status byte, payload []byte, err error) {
	if err := r.nc.SetReadDeadline(time.Time{}); err != nil {
		return 0, nil, err
	}
	r.hdr = len(hdr)
	return readFrameHdr(r, hdr)
}

func (r *frameReader) Read(p []byte) (int, error) {
	n, err := r.nc.Read(p)
	if r.hdr > 0 {
		if r.hdr -= n; r.hdr <= 0 && err == nil {
			err = r.nc.SetReadDeadline(time.Now().Add(r.timeout))
		}
	}
	return n, err
}

// forget abandons a waiter (its caller gave up before the response).
func (w *wireConn) forget(id uint64) {
	w.pmu.Lock()
	delete(w.pending, id)
	w.pmu.Unlock()
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
	var notAfter time.Time
	if d, ok := ctx.Deadline(); ok {
		notAfter = d.Add(10 * time.Millisecond)
	} else {
		fallback = w.c.opts.RequestTimeout
	}
	id := w.nextID.Add(1)
	ch := make(chan muxResult, 1)
	w.pmu.Lock()
	if w.dead {
		w.pmu.Unlock()
		return errConnStale
	}
	w.pending[id] = ch
	w.pmu.Unlock()
	if m := w.c.met.Load(); m != nil {
		m.reqBytes.Observe(int64(len(payload)))
	}
	if err := w.mw.write(notAfter, op, id, wireBudget(ctx, fallback), payload); err != nil {
		w.forget(id)
		if errors.Is(err, errConnStale) {
			// The writer was closed under us; make sure the pool sees the
			// connection dead before this request is replayed.
			w.kill(errConnRetired)
		} else {
			err = transportErr(err)
			w.kill(err)
		}
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
