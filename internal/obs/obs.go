// Package obs is the repo's stdlib-only observability core: atomic
// metric primitives (Counter, Gauge, Histogram) organised into a
// Registry of labeled families and two exposition encoders (Prometheus
// text format and expvar-style JSON). Logging is log/slog's.
//
// The design rule throughout is that recording must be safe on the
// zero-allocation hot path:
//
//   - every record method (Add, Inc, Set, Observe) is a handful of
//     atomic operations — no locks, no maps, no interface boxing;
//   - every handle is nil-receiver safe, so code recording into
//     a nil *Registry compiles to near-no-ops and needs no branches
//     at the call site;
//   - label resolution (Vec.With) happens once at setup time, never
//     per record — callers keep the resolved *Counter/*Histogram.
//
// Exposition and registration take locks and allocate freely; they
// are control-plane operations.
package obs
