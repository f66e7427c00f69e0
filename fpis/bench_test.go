package fpis

// Metrics-overhead benchmarks: the same local identify workload with
// instrumentation off and on; the acceptance bar is < 2% ns/op
// regression and identical allocs/op. The repository benchmark
// (bash benchmark/run.sh, see benchmark/) always runs metrics-on, so
// this pair is where the off/on delta is measured.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fpinterop/internal/obs"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

const benchSubjects = 24

var (
	benchOnce   sync.Once
	benchGal    []*Template
	benchProbe  *Template
	benchFixErr error
)

func benchFixtures(b *testing.B) (gal []*Template, probe *Template) {
	b.Helper()
	benchOnce.Do(func() {
		cohort := population.NewCohort(rng.New(20130808), population.CohortOptions{Size: benchSubjects})
		dev, _ := sensor.ProfileByID("D0")
		for _, s := range cohort.Subjects {
			imp, err := dev.CaptureSubject(s, 0, sensor.CaptureOptions{})
			if err != nil {
				benchFixErr = err
				return
			}
			benchGal = append(benchGal, imp.Template)
		}
		p, err := dev.CaptureSubject(cohort.Subjects[0], 1, sensor.CaptureOptions{})
		if err != nil {
			benchFixErr = err
			return
		}
		benchProbe = p.Template
	})
	if benchFixErr != nil {
		b.Fatal(benchFixErr)
	}
	return benchGal, benchProbe
}

func benchService(b *testing.B, opts ...Option) Service {
	b.Helper()
	gal, _ := benchFixtures(b)
	ctx := context.Background()
	svc, err := New(ctx, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	for i := range gal {
		if err := svc.Enroll(ctx, fmt.Sprintf("subject-%04d", i), "D0", gal[i]); err != nil {
			b.Fatal(err)
		}
	}
	return svc
}

func benchIdentify(b *testing.B, svc Service) {
	b.Helper()
	_, probe := benchFixtures(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Identify(ctx, probe, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceIdentifyMetricsOff(b *testing.B) {
	benchIdentify(b, benchService(b))
}

func BenchmarkServiceIdentifyMetricsOn(b *testing.B) {
	benchIdentify(b, benchService(b, WithMetrics(obs.NewRegistry())))
}

func BenchmarkServiceVerifyMetricsOff(b *testing.B) {
	svc := benchService(b)
	_, probe := benchFixtures(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Verify(ctx, "subject-0000", probe); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceVerifyMetricsOn(b *testing.B) {
	svc := benchService(b, WithMetrics(obs.NewRegistry()))
	_, probe := benchFixtures(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Verify(ctx, "subject-0000", probe); err != nil {
			b.Fatal(err)
		}
	}
}
