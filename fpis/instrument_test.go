package fpis

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"fpinterop/internal/gallery"
	"fpinterop/internal/obs"
)

// nopBackend is an inert gallery backend: the service over it measures
// pure facade and instrumentation overhead.
type nopBackend struct{}

func (nopBackend) EnrollBatch(context.Context, []Enrollment) error { return nil }
func (nopBackend) Remove(context.Context, string) error            { return nil }
func (nopBackend) Verify(context.Context, string, *Template) (MatchResult, error) {
	return MatchResult{}, nil
}
func (nopBackend) IdentifyDetailed(context.Context, *Template, int) ([]Candidate, gallery.IdentifyStats, error) {
	return nil, gallery.IdentifyStats{}, nil
}
func (nopBackend) Len(context.Context) (int, error) { return 0, nil }

// nopService is the facade over nopBackend, instrumented into reg when
// it is non-nil.
func nopService(reg *obs.Registry) Service {
	return newService("local", reg, nopBackend{},
		func(context.Context) (Stats, error) { return Stats{}, nil },
		func() error { return nil })
}

// TestInstrumentationZeroAllocOverhead pins the tentpole's
// non-negotiable: with metrics enabled, the wrapper adds zero
// allocations per operation on the success path. Both the bare
// and the instrumented facade must allocate exactly the table's count:
// nothing, except Enroll's batch of one handed to the backend.
func TestInstrumentationZeroAllocOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	services := []struct {
		name string
		svc  Service
	}{
		{"bare", nopService(nil)},
		{"instrumented", nopService(obs.NewRegistry())},
	}
	ctx := context.Background()

	cases := []struct {
		name   string
		allocs float64
		fn     func(Service)
	}{
		{"Identify", 0, func(s Service) { s.Identify(ctx, nil, 5) }},
		{"IdentifyDetailed", 0, func(s Service) { s.IdentifyDetailed(ctx, nil, 5) }},
		{"Verify", 0, func(s Service) { s.Verify(ctx, "id", nil) }},
		{"Enroll", 1, func(s Service) { s.Enroll(ctx, "id", "D0", nil) }},
		{"Remove", 0, func(s Service) { s.Remove(ctx, "id") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, sv := range services {
				tc.fn(sv.svc) // warm: first call may resolve lazy runtime state
				if n := testing.AllocsPerRun(200, func() { tc.fn(sv.svc) }); n != tc.allocs {
					t.Errorf("%s facade: %v allocs/op, want %v", sv.name, n, tc.allocs)
				}
			}
		})
	}
}

// TestWithMetricsRecordsOps: latency and error-class families carry
// the deployment shape's backend label, on a single store and on an
// in-process router alike.
func TestWithMetricsRecordsOps(t *testing.T) {
	gal, probes := confFixtures(t)
	for _, tc := range []struct {
		backend string
		opts    []Option
	}{
		{"local", nil},
		{"sharded", []Option{WithLocalShards(2)}},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			reg := obs.NewRegistry()
			ctx := context.Background()
			svc, err := New(ctx, append(tc.opts, WithMetrics(reg))...)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			for i := range gal {
				if err := svc.Enroll(ctx, confID(i), "D0", gal[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.Enroll(ctx, confID(0), "D0", gal[0]); !errors.Is(err, ErrDuplicate) {
				t.Fatalf("re-enroll = %v, want ErrDuplicate", err)
			}
			if _, err := svc.Identify(ctx, probes[0], 3); err != nil {
				t.Fatal(err)
			}
			if err := svc.Remove(ctx, "no-such-id"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("remove = %v, want ErrNotFound", err)
			}

			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			for _, want := range []string{
				`fpis_op_latency_ns_count{op="enroll",backend="` + tc.backend + `"} ` + strconv.Itoa(len(gal)+1),
				`fpis_op_latency_ns_count{op="identify",backend="` + tc.backend + `"} 1`,
				`fpis_op_errors_total{op="enroll",backend="` + tc.backend + `",class="duplicate"} 1`,
				`fpis_op_errors_total{op="remove",backend="` + tc.backend + `",class="not_found"} 1`,
			} {
				if !strings.Contains(out, want+"\n") {
					t.Fatalf("metrics missing %q in:\n%s", want, out)
				}
			}
		})
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
}
