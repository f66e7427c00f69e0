// Package obs is the repo's stdlib-only observability core: atomic
// metric primitives (Counter, Gauge, Histogram) organised into a
// Registry of labeled families, two exposition encoders (Prometheus
// text format and expvar-style JSON), a lifecycle-hook bus for
// callers that want to tap operations without the core knowing
// (Hooks), and a structured key=value logger (Logger).
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
// Exposition, registration, and hook registration take locks and
// allocate freely; they are control-plane operations.
package obs
