package matchsvc

// Wire-level tests for the replica sync ops: chunked snapshot
// transfer, tail paging, and the capability refusal on servers with no
// WAL behind them.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"fpinterop/internal/gallery"
	"fpinterop/internal/obs"
	"fpinterop/internal/wal"
)

// startServerOn is startServer over a caller-provided backend, with the
// server's metrics on so tests can read srv.met.
func startServerOn(t *testing.T, store Store) (*Client, *Server) {
	t.Helper()
	srv := NewServer(store, nil)
	srv.SetMetrics(obs.NewRegistry())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	cli := dialT(t, addr)
	t.Cleanup(func() { cli.Close() })
	return cli, srv
}

// requireOpMetered asserts the server counted op under its own label
// exactly sent times and met no opcode it has no label for.
func requireOpMetered(t *testing.T, srv *Server, op byte, sent int) {
	t.Helper()
	if got := srv.met.requests[op].Value(); got != uint64(sent) {
		t.Fatalf("requests_total{op=%q} = %d, want the %d sent", ops[op].label, got, sent)
	}
	if got := srv.met.latency[op].Count(); got != uint64(sent) {
		t.Fatalf("latency_ns{op=%q} holds %d observations, want %d", ops[op].label, got, sent)
	}
	if got := srv.met.unknown.Value(); got != 0 {
		t.Fatalf("unknown_ops_total = %d after only known opcodes", got)
	}
}

func TestSyncSnapshotChunkedTransfer(t *testing.T) {
	ws, err := wal.Open(t.TempDir(), gallery.New(nil), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	cli, srv := startServerOn(t, ws)
	ctx := context.Background()
	tpls := testImpressions(t, 6, "D0", 0)
	for i, tpl := range tpls {
		if err := cli.EnrollBatch(ctx, []Enrollment{{ID: fmt6(i), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}

	// Pull the stream in deliberately tiny chunks so the resume path
	// (same LSN on every chunk, same bytes as one straight read) is
	// exercised over the wire.
	first, err := cli.SyncSnapshot(ctx, 0, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if first.LSN != ws.LSN() {
		t.Fatalf("capture lsn %d, primary at %d", first.LSN, ws.LSN())
	}
	var stream []byte
	stream = append(stream, first.Data...)
	sent := 1
	for int64(len(stream)) < first.Total {
		chunk, err := cli.SyncSnapshot(ctx, first.LSN, int64(len(stream)), 512)
		sent++
		if err != nil {
			t.Fatal(err)
		}
		if chunk.LSN != first.LSN || chunk.Total != first.Total {
			t.Fatalf("chunk identity drifted: lsn %d/%d total %d/%d",
				chunk.LSN, first.LSN, chunk.Total, first.Total)
		}
		if len(chunk.Data) == 0 {
			t.Fatal("empty chunk before the stream completed")
		}
		stream = append(stream, chunk.Data...)
	}
	lsn, entries, err := wal.DecodeSnapshot(stream)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != first.LSN {
		t.Fatalf("decoded lsn %d, want %d", lsn, first.LSN)
	}
	if len(entries) != len(tpls) {
		t.Fatalf("snapshot carries %d entries, want %d", len(entries), len(tpls))
	}
	requireOpMetered(t, srv, OpSyncSnapshot, sent)

	// A resume for an unknown capture surfaces the expiry as a remote
	// error the follower can recognize by restarting at LSN 0.
	if _, err := cli.SyncSnapshot(ctx, first.LSN+99, 0, 512); !errors.Is(err, ErrRemote) {
		t.Fatalf("stale resume: err = %v, want ErrRemote", err)
	}
}

func TestSyncTailOverWire(t *testing.T) {
	ws, err := wal.Open(t.TempDir(), gallery.New(nil), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	cli, srv := startServerOn(t, ws)
	ctx := context.Background()
	tpls := testImpressions(t, 5, "D0", 0)
	for i, tpl := range tpls {
		if err := cli.EnrollBatch(ctx, []Enrollment{{ID: fmt6(i), DeviceID: "D0", Template: tpl}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Remove(ctx, fmt6(1)); err != nil {
		t.Fatal(err)
	}

	// Page the whole history through a replica gallery with a 1-byte
	// budget: one record per page, every boundary crossed on the wire.
	replica := gallery.New(nil)
	var after uint64
	sent := 0
	for {
		page, err := cli.SyncTail(ctx, after, 1)
		sent++
		if err != nil {
			t.Fatal(err)
		}
		if page.Truncated {
			t.Fatal("truncated tail on an uncompacted log")
		}
		if len(page.Records) == 0 {
			if page.PrimaryLSN != ws.LSN() {
				t.Fatalf("primary lsn %d, want %d", page.PrimaryLSN, ws.LSN())
			}
			break
		}
		for _, rec := range page.Records {
			if rec.LSN <= after {
				t.Fatalf("record lsn %d not above cursor %d", rec.LSN, after)
			}
			after = rec.LSN
			if err := wal.ApplyRecord(replica, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireOpMetered(t, srv, OpSyncTail, sent)
	// Snapshot order is the primary's insertion order and the tail
	// replays its mutations in LSN order, so the replica's serialized
	// contents equal the primary's byte for byte.
	var got, want bytes.Buffer
	if err := replica.SaveTo(&got); err != nil {
		t.Fatal(err)
	}
	if err := ws.SaveTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("replica holds %d entries in %d bytes, primary %d in %d, and they differ",
			replica.Len(), got.Len(), ws.Len(), want.Len())
	}

	// After compaction, a cursor below the compaction LSN is told to
	// restart instead of being fed a gap.
	if err := ws.Compact(); err != nil {
		t.Fatal(err)
	}
	page, err := cli.SyncTail(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !page.Truncated {
		t.Fatal("pre-compaction cursor not flagged truncated")
	}
}

func TestSyncRefusedWithoutWAL(t *testing.T) {
	cli, _ := startServerOn(t, gallery.New(nil))
	ctx := context.Background()
	if _, err := cli.SyncSnapshot(ctx, 0, 0, 0); !errors.Is(err, ErrRemote) ||
		!strings.Contains(err.Error(), "replica sync") {
		t.Fatalf("snapshot on plain store: %v", err)
	}
	if _, err := cli.SyncTail(ctx, 0, 0); !errors.Is(err, ErrRemote) ||
		!strings.Contains(err.Error(), "replica sync") {
		t.Fatalf("tail on plain store: %v", err)
	}
}

func fmt6(i int) string {
	return "subject-" + string(rune('a'+i))
}
