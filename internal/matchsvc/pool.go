package matchsvc

// The connection pool. Calls check a connection out for the duration of
// one request and check it back in; checkout prefers an idle live
// connection, dials into a free slot when every live conn is busy, and
// shares the least-loaded conn once the pool is at size. Dead
// connections (demux reader saw EOF, a call hit a transport failure)
// are evicted at checkout, which is what makes redialing transparent.

import (
	"context"
	"sync"
)

type poolSlot struct {
	conn    *wireConn // nil while empty or dialing
	dialing bool
}

type pool struct {
	c *Client

	mu     sync.Mutex
	slots  []*poolSlot
	closed bool
	// installed is closed and replaced whenever a slot changes state, so
	// checkouts blocked on an in-progress dial re-evaluate.
	installed chan struct{}
	// everDialed distinguishes the constructor's seeded connection from
	// later dials, which count as redials in the metrics.
	everDialed bool
}

func newPool(c *Client, size int) *pool {
	if size < 1 {
		size = 1
	}
	p := &pool{c: c, installed: make(chan struct{})}
	p.slots = make([]*poolSlot, size)
	for i := range p.slots {
		p.slots[i] = &poolSlot{}
	}
	return p
}

// seed installs the constructor's eagerly-dialed connection.
func (p *pool) seed(w *wireConn) {
	p.mu.Lock()
	p.slots[0].conn = w
	p.everDialed = true
	p.mu.Unlock()
}

// resize grows or shrinks the pool's slot count. Shrinking closes the
// surplus connections; calls holding one finish with a transport error
// and the stale-conn replay picks up a surviving slot.
func (p *pool) resize(n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	for len(p.slots) > n {
		s := p.slots[len(p.slots)-1]
		p.slots = p.slots[:len(p.slots)-1]
		if s.conn != nil {
			s.conn.close()
		}
	}
	for len(p.slots) < n {
		p.slots = append(p.slots, &poolSlot{})
	}
	p.broadcast()
	p.mu.Unlock()
}

func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.slots)
}

// broadcast wakes checkouts waiting on a dial; callers hold p.mu.
func (p *pool) broadcast() {
	close(p.installed)
	p.installed = make(chan struct{})
}

// checkout returns a connection with its ref count raised; every
// checkout must be paired with a checkin on all paths.
func (p *pool) checkout(ctx context.Context) (*wireConn, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClosed
		}
		var best *wireConn
		var bestRefs int32
		free := -1
		dialing := false
		for i, s := range p.slots {
			if s.conn != nil && s.conn.isDead() {
				s.conn.close()
				s.conn = nil
			}
			if s.conn == nil {
				if s.dialing {
					dialing = true
				} else if free < 0 {
					free = i
				}
				continue
			}
			if r := s.conn.refs.Load(); best == nil || r < bestRefs {
				best, bestRefs = s.conn, r
			}
		}
		if best != nil && (bestRefs == 0 || free < 0) {
			best.refs.Add(1)
			p.mu.Unlock()
			return best, nil
		}
		if free >= 0 {
			s := p.slots[free]
			s.dialing = true
			redial := p.everDialed
			p.everDialed = true
			p.mu.Unlock()
			nc, err := p.c.dialRaw(ctx)
			p.mu.Lock()
			s.dialing = false
			if err != nil {
				p.broadcast()
				p.mu.Unlock()
				return nil, err
			}
			if p.closed || !p.holds(s) {
				p.broadcast()
				p.mu.Unlock()
				nc.Close()
				return nil, ErrClosed
			}
			w := newWireConn(p.c, nc)
			w.refs.Add(1)
			s.conn = w
			if redial {
				if m := p.c.metrics(); m != nil {
					m.redials.Inc()
				}
			}
			p.broadcast()
			p.mu.Unlock()
			return w, nil
		}
		if best != nil {
			// Pool at size, everything busy: share the least-loaded
			// connection — the mux makes that safe.
			best.refs.Add(1)
			p.mu.Unlock()
			return best, nil
		}
		if !dialing {
			// No live conn, no free slot, no dial in flight: resize shrank
			// the pool out from under us; re-evaluate immediately.
			p.mu.Unlock()
			continue
		}
		ch := p.installed
		p.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// holds reports whether s is still one of the pool's slots (a resize
// may have dropped it while its dial was in flight); callers hold p.mu.
func (p *pool) holds(s *poolSlot) bool {
	for _, have := range p.slots {
		if have == s {
			return true
		}
	}
	return false
}

// checkin releases a checkout.
func (p *pool) checkin(w *wireConn) {
	if w == nil {
		return
	}
	w.refs.Add(-1)
	w.touch()
}

// snapshot returns the live connections for the keepalive loop.
func (p *pool) snapshot() []*wireConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*wireConn, 0, len(p.slots))
	for _, s := range p.slots {
		if s.conn != nil {
			out = append(out, s.conn)
		}
	}
	return out
}

func (p *pool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := make([]*wireConn, 0, len(p.slots))
	for _, s := range p.slots {
		if s.conn != nil {
			conns = append(conns, s.conn)
			s.conn = nil
		}
	}
	p.broadcast()
	p.mu.Unlock()
	for _, w := range conns {
		w.close()
	}
}
