package fpis

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"fpinterop/internal/gallery"
	"fpinterop/internal/obs"
	"fpinterop/internal/topology"
)

// nopBackend is an inert gallery backend: the service over it measures
// pure facade and instrumentation overhead.
type nopBackend struct{}

func (nopBackend) Enroll(context.Context, string, string, *Template) error { return nil }
func (nopBackend) EnrollBatch(context.Context, []Enrollment) error         { return nil }
func (nopBackend) Remove(context.Context, string) error                    { return nil }
func (nopBackend) Verify(context.Context, string, *Template) (MatchResult, error) {
	return MatchResult{}, nil
}
func (nopBackend) IdentifyDetailed(context.Context, *Template, int) ([]Candidate, gallery.IdentifyStats, error) {
	return nil, gallery.IdentifyStats{}, nil
}
func (nopBackend) Len(context.Context) (int, error) { return 0, nil }

// nopService is the facade over nopBackend under cfg.
func nopService(cfg config) Service {
	return newService("local", cfg, nopBackend{}, nil,
		func(context.Context) (Stats, error) { return Stats{}, nil },
		func() error { return nil })
}

// TestInstrumentationZeroAllocOverhead pins the tentpole's
// non-negotiable: with metrics AND hooks enabled, the wrapper adds
// zero allocations per operation on the success path.
func TestInstrumentationZeroAllocOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	reg := obs.NewRegistry()
	hooks := obs.NewHooks()
	var afterCalls atomic.Int64
	hooks.OnBefore(func(op, backend string) {})
	hooks.OnAfter(func(e obs.Event) { afterCalls.Add(1) })
	svc := nopService(config{Config: topology.Config{Metrics: reg}, hooks: hooks})
	ctx := context.Background()

	cases := []struct {
		name string
		fn   func()
	}{
		{"Identify", func() { svc.Identify(ctx, nil, 5) }},
		{"IdentifyDetailed", func() { svc.IdentifyDetailed(ctx, nil, 5) }},
		{"Verify", func() { svc.Verify(ctx, "id", nil) }},
		{"Enroll", func() { svc.Enroll(ctx, "id", "D0", nil) }},
		{"Remove", func() { svc.Remove(ctx, "id") }},
	}
	for _, tc := range cases {
		tc.fn() // warm: first call may resolve lazy runtime state
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s: instrumentation added %v allocs/op, want 0", tc.name, n)
		}
	}
	if afterCalls.Load() == 0 {
		t.Fatal("after hooks never ran")
	}
}

func TestWithMetricsRecordsOps(t *testing.T) {
	gal, probes := confFixtures(t)
	reg := obs.NewRegistry()
	ctx := context.Background()
	svc, err := New(ctx, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := range gal {
		if err := svc.Enroll(ctx, confID(i), "D0", gal[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Identify(ctx, probes[0], 3); err != nil {
		t.Fatal(err)
	}
	if err := svc.Remove(ctx, "no-such-id"); err == nil {
		t.Fatal("expected ErrNotFound")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`fpis_op_latency_ns_count{op="enroll",backend="local"} ` + strconv.Itoa(len(gal)),
		`fpis_op_latency_ns_count{op="identify",backend="local"} 1`,
		`fpis_op_errors_total{op="remove",backend="local",class="not_found"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestWithHooksSeesEventsAndClasses(t *testing.T) {
	gal, probes := confFixtures(t)
	hooks := obs.NewHooks()
	type seen struct {
		op, backend, class string
		hadErr             bool
	}
	var events []seen
	hooks.OnAfter(func(e obs.Event) {
		events = append(events, seen{e.Op, e.Backend, e.Class, e.Err != nil})
	})
	var errEvents []seen
	hooks.OnError(func(e obs.Event) {
		errEvents = append(errEvents, seen{e.Op, e.Backend, e.Class, e.Err != nil})
	})
	ctx := context.Background()
	svc, err := New(ctx, WithHooks(hooks), WithLocalShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Enroll(ctx, confID(0), "D0", gal[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Verify(ctx, confID(0), probes[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Enroll(ctx, confID(0), "D0", gal[0]); err == nil {
		t.Fatal("expected ErrDuplicate")
	}
	want := []seen{
		{"enroll", "sharded", "", false},
		{"verify", "sharded", "", false},
		{"enroll", "sharded", "duplicate", true},
	}
	if len(events) != len(want) {
		t.Fatalf("events %+v, want %+v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
	if len(errEvents) != 1 || errEvents[0].class != "duplicate" {
		t.Fatalf("error hooks saw %+v, want one duplicate", errEvents)
	}
}

func TestErrClass(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{context.Canceled, "canceled"},
		{context.DeadlineExceeded, "deadline"},
		{ErrNotFound, "not_found"},
		{ErrDuplicate, "duplicate"},
	}
	for _, tc := range cases {
		if got := errClass(tc.err); got != tc.want {
			t.Errorf("errClass(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

func TestOptionsRejectNilObservability(t *testing.T) {
	if _, err := New(context.Background(), WithMetrics(nil)); err == nil {
		t.Fatal("WithMetrics(nil) accepted")
	}
	if _, err := New(context.Background(), WithHooks(nil)); err == nil {
		t.Fatal("WithHooks(nil) accepted")
	}
}
