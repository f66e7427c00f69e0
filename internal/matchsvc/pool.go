package matchsvc

// The connection pool. Calls check a connection out for the duration of
// one request and check it back in; checkout prefers an idle live
// connection, dials into a free slot when every live conn is busy, and
// shares the least-loaded conn once the pool is at size. Dead
// connections (demux reader saw EOF, a call hit a transport failure)
// are evicted at checkout, which is what makes redialing transparent.
// The slot count is fixed at Dial, and a slot only ever holds a
// connection whose handshake has succeeded.

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
	slots  []poolSlot
	closed bool
	// installed is closed and replaced whenever a dial finishes or the
	// pool closes, so checkouts blocked on a dial re-evaluate.
	installed chan struct{}
}

// newPool returns a pool of size slots (minimum 1) whose first holds
// first, the connection Dial opened.
func newPool(c *Client, size int, first *wireConn) *pool {
	p := &pool{c: c, slots: make([]poolSlot, max(size, 1)), installed: make(chan struct{})}
	p.slots[0].conn = first
	return p
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
		var free *poolSlot
		for i := range p.slots {
			s := &p.slots[i]
			if s.conn != nil && s.conn.isDead() {
				s.conn = nil
			}
			if s.conn == nil {
				if !s.dialing && free == nil {
					free = s
				}
				continue
			}
			if r := s.conn.refs.Load(); best == nil || r < bestRefs {
				best, bestRefs = s.conn, r
			}
		}
		if best != nil && (bestRefs == 0 || free == nil) {
			// An idle connection — or, with the pool at size and
			// everything busy, the least-loaded one: the mux makes
			// sharing safe.
			best.refs.Add(1)
			p.mu.Unlock()
			return best, nil
		}
		if free != nil {
			free.dialing = true
			p.mu.Unlock()
			w, err := p.c.connect(ctx)
			p.mu.Lock()
			free.dialing = false
			p.broadcast()
			if err == nil && p.closed {
				w.close()
				err = ErrClosed
			}
			if err != nil {
				p.mu.Unlock()
				return nil, err
			}
			w.refs.Add(1)
			free.conn = w
			if m := p.c.met.Load(); m != nil {
				m.redials.Inc()
			}
			p.mu.Unlock()
			return w, nil
		}
		// No live conn and every slot mid-dial: wait for one to land.
		ch := p.installed
		p.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// checkin releases a checkout.
func (p *pool) checkin(w *wireConn) {
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
	p.closed = true
	p.broadcast()
	p.mu.Unlock()
	for _, w := range p.snapshot() {
		w.close()
	}
}
