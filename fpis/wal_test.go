package fpis

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
)

// TestWithWALSurvivesRestart proves the facade-level durability
// contract for both in-process deployment shapes: every mutation
// acknowledged before Close (or a crash — the log is synced per
// acknowledgement) is back after reconstruction, with the recovery
// visible in Stats.
func TestWithWALSurvivesRestart(t *testing.T) {
	gal, probes := confFixtures(t)
	ctx := context.Background()
	shapes := []struct {
		name string
		opts func(dir string) []Option
	}{
		{"local", func(dir string) []Option {
			return []Option{WithWAL(dir)}
		}},
		{"localSharded", func(dir string) []Option {
			return []Option{WithWAL(dir), WithLocalShards(3), WithWALCompactEvery(4)}
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			svc, err := New(ctx, shape.opts(dir)...)
			if err != nil {
				t.Fatal(err)
			}
			for i := range gal {
				if err := svc.Enroll(ctx, confID(i), "D0", gal[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.Remove(ctx, confID(0)); err != nil {
				t.Fatal(err)
			}
			st, err := svc.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.WAL == nil {
				t.Fatal("Stats.WAL is nil on a WithWAL service")
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}

			svc, err = New(ctx, shape.opts(dir)...)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer svc.Close()
			st, err = svc.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Enrollments != len(gal)-1 {
				t.Fatalf("recovered %d enrollments, want %d", st.Enrollments, len(gal)-1)
			}
			if st.WAL == nil || st.WAL.Replayed+st.WAL.SnapshotEntries == 0 {
				t.Fatalf("recovery not reflected in Stats.WAL: %+v", st.WAL)
			}
			if _, err := svc.Verify(ctx, confID(0), probes[0]); !errors.Is(err, ErrNotFound) {
				t.Fatalf("removed subject resurrected: err = %v", err)
			}
			res, err := svc.Verify(ctx, confID(1), probes[1])
			if err != nil {
				t.Fatal(err)
			}
			if res.Score <= 0 {
				t.Fatalf("recovered template does not match its probe: %+v", res)
			}
		})
	}
}

// TestWALOptionValidation pins the option applicability rules.
func TestWALOptionValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := New(ctx, WithWAL("")); err == nil {
		t.Fatal("WithWAL(\"\") accepted")
	}
	if _, err := New(ctx, WithWALCompactEvery(8)); err == nil {
		t.Fatal("WithWALCompactEvery without WithWAL accepted")
	}
	if _, err := New(ctx, WithWAL(t.TempDir()), WithWALCompactEvery(-1)); err == nil {
		t.Fatal("negative WithWALCompactEvery accepted")
	}
	if _, err := New(ctx, WithShards(sinkAddr(t)), WithWAL(t.TempDir())); err == nil {
		t.Fatal("WithWAL on a WithShards front accepted")
	}
	if _, err := Dial(ctx, sinkAddr(t), WithWAL(t.TempDir())); err == nil {
		t.Fatal("WithWAL on Dial accepted")
	}
	if _, err := Dial(ctx, sinkAddr(t), WithWALCompactEvery(8)); err == nil {
		t.Fatal("WithWALCompactEvery on Dial accepted")
	}
}
