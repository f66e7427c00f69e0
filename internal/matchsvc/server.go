package matchsvc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fpinterop/internal/enc"
	"fpinterop/internal/gallery"
	"fpinterop/internal/wal"
)

// SyncSource is the one optional capability, behind OpSyncSnapshot and
// OpSyncTail: a WAL-backed store (wal.Store) can ship a consistent
// snapshot capture plus its log tail to a catching-up read replica.
// The constructors look for it once; servers whose backend has no log
// refuse the ops — there is no history to ship.
type SyncSource interface {
	SyncSnapshot(resumeLSN uint64, offset int64, maxBytes int) (wal.SnapshotChunk, error)
	SyncTail(afterLSN uint64, maxBytes int) (wal.TailPage, error)
}

// defaultIdleTimeout bounds how long a connection may sit between (or
// inside) requests before the server drops it: a dead peer or a
// slow-loris client must not pin a handler goroutine forever.
const defaultIdleTimeout = 2 * time.Minute

// Server is the central matching service: it owns a Backend and serves
// the frame protocol over TCP. Connections are handled concurrently,
// and so are the requests multiplexed on one connection; each request
// runs under a context that ends when its envelope's budget does or
// its connection drops.
type Server struct {
	backend Backend
	// sync is the backend's log-shipping capability, nil without one.
	sync        SyncSource
	logger      *slog.Logger
	idleTimeout time.Duration
	// statsFn, when set, answers OpStats with the serving process's
	// full summary; without it the op falls back to the backend's count.
	statsFn func(context.Context) (ServiceStats, error)
	// met is non-nil after SetMetrics.
	met *serverMetrics

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewServer returns a server over an in-process store — a gallery, a
// WAL-backed store, a read-only replica view — adapted once through
// Local (a fresh single-node store with the default matcher when nil).
// logger may be nil to disable logging.
func NewServer(store Store, logger *slog.Logger) *Server {
	if store == nil {
		store = gallery.New(nil)
	}
	s := NewBackendServer(Local{Store: store}, logger)
	s.sync, _ = store.(SyncSource)
	return s
}

// NewBackendServer returns a server over anything that already speaks
// the contract: a shard router's front, a replica set, a remote.
func NewBackendServer(b Backend, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		backend:     b,
		logger:      logger,
		idleTimeout: defaultIdleTimeout,
		conns:       make(map[net.Conn]struct{}),
	}
	s.sync, _ = b.(SyncSource)
	return s
}

// SetIdleTimeout bounds how long the server waits for a complete request
// frame on an open connection (default 2 minutes); d <= 0 disables the
// deadline. Call before Serve.
func (s *Server) SetIdleTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.idleTimeout = d
}

// SetStatsFunc installs the OpStats source: the serving process knows
// its own topology (shard count, index state, WAL durability) in a way
// the wire server cannot infer from the Backend contract. Call before
// Serve. Without it, OpStats still answers with the backend's
// enrollment count and a shard count of one.
func (s *Server) SetStatsFunc(fn func(context.Context) (ServiceStats, error)) { s.statsFn = fn }

// Listen binds addr (e.g. "127.0.0.1:0") and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("matchsvc: listen %s: %w", addr, err)
	}
	if err := s.ListenOn(ln); err != nil {
		return "", err
	}
	return ln.Addr().String(), nil
}

// ListenOn serves on an externally-created listener instead of binding
// one — the hook fault-injection harnesses use to interpose on the
// accept path (e.g. faultnet.Wrap around a TCP listener). The server
// takes ownership: Close closes it.
func (s *Server) ListenOn(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		ln.Close()
		return errors.New("matchsvc: server already closed")
	}
	s.listener = ln
	return nil
}

// Serve accepts connections until the context is cancelled or Close is
// called. Listen must have been called first.
func (s *Server) Serve(ctx context.Context) error {
	s.mu.Lock()
	ln := s.listener
	s.mu.Unlock()
	if ln == nil {
		return errors.New("matchsvc: Serve before Listen")
	}
	// Stopped when Serve returns: under a context that is never
	// cancelled, Close ends the accept loop and nothing must linger.
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	// Connections outlive the accept loop: a shutdown drains the
	// requests already in flight instead of cancelling them, so request
	// contexts descend from ctx without its cancellation.
	connRoot := context.WithoutCancel(ctx)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || s.isClosed() {
				s.wg.Wait()
				return nil
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				// Transient accept failure (fd pressure, injected fault):
				// back off briefly instead of tearing the server down.
				select {
				case <-ctx.Done():
				case <-time.After(5 * time.Millisecond):
				}
				continue
			}
			return fmt.Errorf("matchsvc: accept: %w", err)
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		if s.met != nil {
			s.met.connsTotal.Inc()
			s.met.conns.Inc()
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
				if s.met != nil {
					s.met.conns.Dec()
				}
			}()
			if err := s.handle(connRoot, conn); err != nil && !errors.Is(err, io.EOF) {
				s.logger.Warn("connection error", "remote", conn.RemoteAddr().String(), "err", err)
			}
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops accepting, closes active connections and waits for
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// handle serves one connection until EOF. The first frame must be a
// hello proposing version 3 or newer; it is answered with the version
// the server speaks and the connection moves to the mux dispatcher.
// Anything else — another opcode, an older hello, a hello damaged in
// transit — drops the connection: there is no other envelope to fall
// back to, and an error reply could not be checksummed.
func (s *Server) handle(ctx context.Context, conn net.Conn) error {
	if s.idleTimeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(s.idleTimeout)); err != nil {
			return fmt.Errorf("matchsvc: set deadline: %w", err)
		}
	}
	op, payload, err := readFrame(conn)
	if err != nil {
		return err
	}
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}
	if op != OpHello {
		return fmt.Errorf("matchsvc: first frame is opcode 0x%02x, want hello", op)
	}
	r := enc.Reader{Buf: payload}
	if ver := r.Uint32(); r.Err() != nil || ver < protoMuxed {
		return fmt.Errorf("matchsvc: hello proposes unusable version %d (%v)", ver, r.Err())
	}
	if s.met != nil {
		s.met.observeOp(OpHello, t0)
	}
	if err := writeFrame(conn, StatusOK, helloVersion[:]); err != nil {
		return err
	}
	return s.handleMux(ctx, conn)
}

// opRow is everything one opcode is besides its number: the label its
// metrics carry, whether a client may re-send it after a transport
// failure (re-asking cannot double-apply — see Retry), and how the
// server answers it: decode the request payload, call the backend,
// encode the response into w. A row without serve is refused with the
// unknown-opcode error: a retired number, or the hello, which only
// opens a connection.
type opRow struct {
	label      string
	idempotent bool
	serve      func(ctx context.Context, s *Server, payload []byte, w *enc.Writer) error
}

// numOps sizes the opcode-indexed tables. It cannot be len(ops): ops
// names Server, whose metrics hold arrays of this length.
const numOps = OpSyncTail + 1

// ops is the opcode table. Retiring an opcode deletes its row; the
// number stays unused.
var ops = [numOps]opRow{
	OpPing: {"ping", true, func(context.Context, *Server, []byte, *enc.Writer) error { return nil }},

	OpVerify: {"verify", true, func(ctx context.Context, s *Server, payload []byte, w *enc.Writer) error {
		r := enc.Reader{Buf: payload}
		id := r.String()
		probe, err := readTemplate(&r)
		if err != nil {
			return err
		}
		res, err := s.backend.Verify(ctx, id, probe)
		if err != nil {
			return err
		}
		w.Float64(res.Score)
		w.Uint32(uint32(res.Matched))
		return nil
	}},

	OpRemove: {"remove", false, func(ctx context.Context, s *Server, payload []byte, _ *enc.Writer) error {
		r := enc.Reader{Buf: payload}
		id := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		return s.backend.Remove(ctx, id)
	}},

	OpCount: {"count", true, func(ctx context.Context, s *Server, _ []byte, w *enc.Writer) error {
		n, err := s.backend.Len(ctx)
		w.Uint32(uint32(n))
		return err
	}},

	OpIdentifyEx: {"identify_ex", true, func(ctx context.Context, s *Server, payload []byte, w *enc.Writer) error {
		r := enc.Reader{Buf: payload}
		k := r.Uint32()
		probe, err := readTemplate(&r)
		if err != nil {
			return err
		}
		cands, stats, err := s.backend.IdentifyDetailed(ctx, probe, int(k))
		if err != nil {
			return err
		}
		return encodeIdentify(w, cands, stats)
	}},

	OpEnrollBatch: {"enroll_batch", false, func(ctx context.Context, s *Server, payload []byte, w *enc.Writer) error {
		r := enc.Reader{Buf: payload}
		items := make([]Enrollment, r.Count(enc.EnrollmentMinSize))
		if err := r.Err(); err != nil {
			return err
		}
		for i := range items {
			var err error
			if items[i], err = gallery.DecodeExport(&r); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		// One call: the backend decides what a batch is — one group
		// commit on a WAL store, parallel per-shard batches on a front.
		if err := s.backend.EnrollBatch(ctx, items); err != nil {
			return err
		}
		w.Uint32(uint32(len(items)))
		return nil
	}},

	OpStats: {"stats", true, func(ctx context.Context, s *Server, _ []byte, w *enc.Writer) error {
		st := ServiceStats{Shards: 1}
		var err error
		if s.statsFn != nil {
			st, err = s.statsFn(ctx)
		} else {
			st.Enrollments, err = s.backend.Len(ctx)
		}
		if err != nil {
			return err
		}
		return encodeServiceStats(w, st)
	}},

	OpHello: {label: "hello"},

	OpSyncSnapshot: {"sync_snapshot", true, func(_ context.Context, s *Server, payload []byte, w *enc.Writer) error {
		if s.sync == nil {
			return errNoSync
		}
		r := enc.Reader{Buf: payload}
		resumeLSN, offset, maxBytes := r.Uint64(), r.Uint64(), r.Uint32()
		if err := r.Err(); err != nil {
			return err
		}
		max := int(maxBytes)
		if max <= 0 || max > pageBudget {
			max = pageBudget
		}
		chunk, err := s.sync.SyncSnapshot(resumeLSN, int64(offset), max)
		if err != nil {
			return err
		}
		w.Uint64(chunk.LSN)
		w.Uint64(uint64(chunk.Total))
		w.Bytes(chunk.Data)
		return nil
	}},

	OpSyncTail: {"sync_tail", true, func(_ context.Context, s *Server, payload []byte, w *enc.Writer) error {
		if s.sync == nil {
			return errNoSync
		}
		r := enc.Reader{Buf: payload}
		afterLSN, maxBytes := r.Uint64(), r.Uint32()
		if err := r.Err(); err != nil {
			return err
		}
		max := int(maxBytes)
		if max <= 0 || max > pageBudget {
			max = pageBudget
		}
		page, err := s.sync.SyncTail(afterLSN, max)
		if err != nil {
			return err
		}
		w.Uint64(page.PrimaryLSN)
		flags := uint32(0)
		if page.Truncated {
			flags |= 1
		}
		w.Uint32(flags)
		// SyncTail's byte budget is approximate (it always ships one
		// record), so the page is still cut to the frame here.
		_, err = packPage(w, pageBudget, len(page.Records), func(i int) (string, error) {
			return page.Records[i].ID, page.Records[i].AppendTo(w)
		})
		return err
	}},
}

// dispatch executes one request under its context and builds the
// response payload into w (arriving empty; dispatch must not retain
// payload or w.Buf past the return — both are request-scoped scratch).
func (s *Server) dispatch(ctx context.Context, op byte, payload []byte, w *enc.Writer) (byte, []byte) {
	var err error
	if int(op) < numOps && ops[op].serve != nil {
		err = ops[op].serve(ctx, s, payload, w)
	} else {
		err = fmt.Errorf("matchsvc: unknown opcode 0x%02x", op)
	}
	if err == nil {
		return StatusOK, w.Buf
	}
	// A handler may have written part of a success payload before
	// failing; the error response starts clean, its message cut well
	// under the string length cap, so writing it cannot fail.
	w.Buf = w.Buf[:0]
	msg := err.Error()
	_ = w.String(msg[:min(len(msg), 1024)])
	return StatusFor(err), w.Buf
}

// packPage appends a uint32 item count and then up to n items, each
// written by put (which names it for the error), to the payload in w,
// cutting the page where w would outgrow budget bytes, and returns how
// many items went in. It fills a frame in either direction: a sync-tail
// response on the server, an enroll-batch request on the client. Fewer
// than n items is a legal page — the reader of a response advances its
// cursor and asks again, the sender of a request ships the rest in the
// next frame — but an empty page with items pending would make no
// progress, so a first item too large to ship is an error.
func packPage(w *enc.Writer, budget, n int, put func(i int) (id string, err error)) (int, error) {
	countAt := len(w.Buf)
	w.Uint32(0) // patched once the cut is known
	count := 0
	for ; count < n; count++ {
		mark := len(w.Buf)
		id, err := put(count)
		if err != nil {
			return 0, err
		}
		if len(w.Buf) > budget {
			if count == 0 {
				return 0, fmt.Errorf("matchsvc: page item %q exceeds frame budget", id)
			}
			w.Buf = w.Buf[:mark]
			break
		}
	}
	binary.BigEndian.PutUint32(w.Buf[countAt:], uint32(count))
	return count, nil
}

var errNoSync = errors.New("matchsvc: backend does not support replica sync")

// muxServerConcurrency bounds how many requests one multiplexed
// connection may have executing at once; excess frames queue at the
// read loop, applying natural backpressure through TCP.
const muxServerConcurrency = 128

// posReader counts bytes so the mux read loop can tell an idle
// connection (zero bytes of the next frame arrived — fine while
// responses are still owed) from a stalled one (a frame cut off
// mid-header, which desyncs the stream and must drop the conn).
type posReader struct {
	r io.Reader
	n int64
}

func (p *posReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.n += int64(n)
	return n, err
}

// handleMux serves one negotiated multiplexed connection: each request
// frame dispatches on its own goroutine (bounded by
// muxServerConcurrency) and responses return in completion order,
// carrying the request ID they answer. One slow 1:N no longer blocks
// the pings queued behind it — the whole point of the mux. Responses
// leave through the same group-flushing muxWriter the client sends
// with, each write bounded by the idle timeout.
//
// Requests run under cctx, cancelled the moment this read loop exits —
// the client hung up, a frame was unreadable, the idle deadline fired —
// so nobody keeps matching for a caller that can no longer hear the
// answer. A request whose envelope carries a budget gets a deadline on
// top; one without (a ping, a verify from a deadline-free caller) runs
// on cctx itself and allocates nothing for it.
func (s *Server) handleMux(ctx context.Context, conn net.Conn) error {
	cctx, cancel := context.WithCancel(ctx)
	pr := &posReader{r: conn}
	mw := newMuxWriter(conn, s.idleTimeout)
	var (
		inflight atomic.Int64
		wg       sync.WaitGroup
		hdr      [5]byte
	)
	defer wg.Wait()
	defer cancel()
	sem := make(chan struct{}, muxServerConcurrency)
	for {
		if s.idleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.idleTimeout)); err != nil {
				return fmt.Errorf("matchsvc: set read deadline: %w", err)
			}
		}
		start := pr.n
		op, payload, err := readFrameHdr(pr, &hdr)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && pr.n == start && inflight.Load() > 0 {
				// Quiet between frames while requests still execute: their
				// responses are the connection's liveness. Keep waiting.
				continue
			}
			return err
		}
		id, budget, body, err := openMuxEnvelope(op, payload)
		if err != nil {
			// The envelope (or its checksum) is unreadable, so no error
			// reply can name the request it answers; drop the conn.
			return err
		}
		sem <- struct{}{}
		inflight.Add(1)
		wg.Add(1)
		go func(op byte, id uint64, budget uint32, body []byte) {
			defer wg.Done()
			defer inflight.Add(-1)
			defer func() { <-sem }()
			rctx := cctx
			if budget > 0 {
				var done context.CancelFunc
				rctx, done = context.WithTimeout(cctx, time.Duration(budget)*time.Millisecond)
				defer done()
			}
			fs := acquireFrameScratch()
			defer releaseFrameScratch(fs)
			fs.w.Buf = fs.w.Buf[:0]
			var t0 time.Time
			if s.met != nil {
				t0 = time.Now()
				s.met.inflight.Inc()
			}
			status, resp := s.dispatch(rctx, op, body, &fs.w)
			if s.met != nil {
				s.met.observeOp(op, t0)
				s.met.inflight.Dec()
			}
			// A failed write has closed the socket, which ends the read
			// loop above; there is nobody left to tell.
			_ = mw.write(time.Time{}, status, id, 0, resp)
		}(op, id, budget, body)
	}
}
