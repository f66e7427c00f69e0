package wal

import (
	"os"
	"path/filepath"
	"testing"

	"fpinterop/internal/gallery"
	"fpinterop/internal/obs"
)

func gauge(reg *obs.Registry, name, shard string) int64 {
	return reg.GaugeVec(name, "", "shard").With(shard).Value()
}

func histCount(reg *obs.Registry, name, shard string) uint64 {
	return reg.HistogramVec(name, "", obs.LatencyBuckets(), "shard").With(shard).Count()
}

// TestMetricsReportRecovery opens a directory holding a two-entry
// snapshot and a log of two records, the second torn, and checks that
// the recovery gauges say exactly that.
func TestMetricsReportRecovery(t *testing.T) {
	fx := fixtures(t, 4)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for _, e := range fx[:2] {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Enroll(fx[2].ID, fx[2].DeviceID, fx[2].Template); err != nil {
		t.Fatal(err)
	}
	good, err := s.LogSize()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Enroll(fx[3].ID, fx[3].DeviceID, fx[3].Template); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, logName), good+5); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s2, err := Open(dir, gallery.New(nil), Options{Metrics: reg, Shard: "s7"})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	size, err := s2.LogSize()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{"wal_recovered_snapshot_entries", 2},
		{"wal_replayed_records", 1},
		{"wal_truncated_bytes", 5},
		{"wal_torn_tail", 1},
		{"wal_log_bytes", size},
	} {
		if got := gauge(reg, c.name, "s7"); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if size != good {
		t.Errorf("log is %d bytes after recovery, want the last good record's end %d", size, good)
	}
}

// TestMetricsTrackAppendsAndCompactions checks the per-mutation
// families: one append and at least one fsync per acknowledged write,
// the log size after every write, and one count per compaction —
// explicit or automatic — after which the log is back to its header.
func TestMetricsTrackAppendsAndCompactions(t *testing.T) {
	fx := fixtures(t, 5)
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), gallery.New(nil), Options{Metrics: reg, CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const shard = "wal" // the label an unnamed store gets
	if got := gauge(reg, "wal_torn_tail", shard); got != 0 {
		t.Fatalf("fresh directory reports torn tail %d", got)
	}
	header, err := s.LogSize()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range fx[:3] {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
		size, _ := s.LogSize()
		if got := gauge(reg, "wal_log_bytes", shard); got != size || size <= header {
			t.Fatalf("after write %d: wal_log_bytes %d, log size %d (header %d)", i, got, size, header)
		}
	}
	if got := histCount(reg, "wal_append_latency_ns", shard); got != 3 {
		t.Fatalf("wal_append_latency_ns count %d after 3 writes", got)
	}
	if got := histCount(reg, "wal_fsync_latency_ns", shard); got < 3 {
		t.Fatalf("wal_fsync_latency_ns count %d after 3 writes", got)
	}
	compactions := func() uint64 { return reg.CounterVec("wal_compactions_total", "", "shard").With(shard).Value() }
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := compactions(); got != 1 {
		t.Fatalf("wal_compactions_total %d after Compact", got)
	}
	if got := gauge(reg, "wal_log_bytes", shard); got != header {
		t.Fatalf("wal_log_bytes %d after compaction, want the bare header %d", got, header)
	}
	// CompactEvery counts from the last compaction: the fourth write
	// after it compacts on its own.
	if err := s.Remove(fx[0].ID); err != nil {
		t.Fatal(err)
	}
	for _, e := range fx[3:] {
		if err := s.Enroll(e.ID, e.DeviceID, e.Template); err != nil {
			t.Fatal(err)
		}
	}
	if got := compactions(); got != 1 {
		t.Fatalf("wal_compactions_total %d after 3 writes past a compaction", got)
	}
	if err := s.Remove(fx[1].ID); err != nil {
		t.Fatal(err)
	}
	if got := compactions(); got != 2 {
		t.Fatalf("wal_compactions_total %d after the fourth write, want an automatic compaction", got)
	}
	if got := histCount(reg, "wal_compaction_latency_ns", shard); got != 2 {
		t.Fatalf("wal_compaction_latency_ns count %d, want 2", got)
	}
	if got := gauge(reg, "wal_log_bytes", shard); got != header {
		t.Fatalf("wal_log_bytes %d after the automatic compaction, want %d", got, header)
	}
}
