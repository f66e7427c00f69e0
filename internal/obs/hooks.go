package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event describes one completed operation, delivered to after and
// error hooks.
type Event struct {
	// Op is the operation name ("enroll", "identify", ...).
	Op string
	// Backend is the deployment shape serving the op ("local",
	// "sharded", "remote").
	Backend string
	// Duration is the wall time the operation took.
	Duration time.Duration
	// Err is the operation's error, nil on success.
	Err error
	// Class is a low-cardinality classification of Err ("canceled",
	// "not_found", ...), empty on success. Suitable as a metric label
	// where Err.Error() is not.
	Class string
}

// Hooks is a lifecycle bus: callers register functions to run before
// and after operations (and on errors), and the code doing the work
// dispatches without knowing who is listening — the observer idiom.
// Registration copies-on-write into an atomically swapped set, so
// dispatch is lock-free: one atomic load plus direct calls. A nil
// *Hooks dispatches to nobody. Hook functions run synchronously on
// the operation's goroutine and must not block.
type Hooks struct {
	mu  sync.Mutex // serializes registration
	set atomic.Pointer[hookSet]
}

type hookSet struct {
	before []func(op, backend string)
	after  []func(Event)
	onErr  []func(Event)
}

// NewHooks returns an empty bus.
func NewHooks() *Hooks { return &Hooks{} }

func (h *Hooks) update(f func(*hookSet)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	next := &hookSet{}
	if cur := h.set.Load(); cur != nil {
		next.before = append(next.before, cur.before...)
		next.after = append(next.after, cur.after...)
		next.onErr = append(next.onErr, cur.onErr...)
	}
	f(next)
	h.set.Store(next)
}

// OnBefore registers fn to run as each operation starts.
func (h *Hooks) OnBefore(fn func(op, backend string)) {
	if h == nil || fn == nil {
		return
	}
	h.update(func(s *hookSet) { s.before = append(s.before, fn) })
}

// OnAfter registers fn to run as each operation completes,
// success or failure.
func (h *Hooks) OnAfter(fn func(Event)) {
	if h == nil || fn == nil {
		return
	}
	h.update(func(s *hookSet) { s.after = append(s.after, fn) })
}

// OnError registers fn to run only when an operation fails; it runs
// after the OnAfter hooks.
func (h *Hooks) OnError(fn func(Event)) {
	if h == nil || fn == nil {
		return
	}
	h.update(func(s *hookSet) { s.onErr = append(s.onErr, fn) })
}

// Before dispatches the before hooks.
//
//fpvet:hotpath dispatch runs on zero-alloc request paths.
func (h *Hooks) Before(op, backend string) {
	if h == nil {
		return
	}
	s := h.set.Load()
	if s == nil {
		return
	}
	for _, fn := range s.before {
		fn(op, backend)
	}
}

// After dispatches the after hooks, then the error hooks when
// e.Err is non-nil.
//
//fpvet:hotpath dispatch runs on zero-alloc request paths.
func (h *Hooks) After(e Event) {
	if h == nil {
		return
	}
	s := h.set.Load()
	if s == nil {
		return
	}
	for _, fn := range s.after {
		fn(e)
	}
	if e.Err == nil {
		return
	}
	for _, fn := range s.onErr {
		fn(e)
	}
}
