package main

import (
	"net"
	"sync/atomic"
	"testing"
)

// sinkAddr listens on loopback, counting and closing every connection
// it accepts, and fails the test at cleanup if there was any. A flag
// combination that validation must reject points at it, so a missing
// check shows as a connection instead of hiding behind a refused dial.
func sinkAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			c.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		if n := accepted.Load(); n != 0 {
			t.Errorf("validation let %d connection(s) through to %s", n, ln.Addr())
		}
	})
	return ln.Addr().String()
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("expected flag error")
	}
	if err := run([]string{"-preload", "1", "-device", "D9"}); err == nil {
		t.Fatal("expected unknown-device error")
	}
	// An unusable listen address fails fast rather than serving.
	if err := run([]string{"-addr", "256.256.256.256:0"}); err == nil {
		t.Fatal("expected listen error")
	}
	if err := run([]string{"-index-fanout", "-1"}); err == nil {
		t.Fatal("expected fanout validation error")
	}
	if err := run([]string{"-index-fanout", "128"}); err == nil {
		t.Fatal("expected -index-fanout without -index to be rejected")
	}
	// The indexed preload path wires EnableIndex before enrollment; the
	// bad address still aborts before serving.
	if err := run([]string{"-index", "-preload", "3", "-addr", "256.256.256.256:0"}); err == nil {
		t.Fatal("expected listen error on indexed preload")
	}
	if err := run([]string{"-local-shards", "-2"}); err == nil {
		t.Fatal("expected negative -local-shards to be rejected")
	}
	sink := sinkAddr(t)
	if err := run([]string{"-local-shards", "2", "-shards", sink}); err == nil {
		t.Fatal("expected -local-shards with -shards to be rejected")
	}
	if err := run([]string{"-shards", sink, "-index"}); err == nil {
		t.Fatal("expected -index on a -shards front to be rejected")
	}
	if err := run([]string{"-shard-timeout", "5s"}); err == nil {
		t.Fatal("expected -shard-timeout without sharding to be rejected")
	}
	// A remote-shard front fails fast when a shard is unreachable.
	if err := run([]string{"-shards", "127.0.0.1:1", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("expected dial error for unreachable shard")
	}
	// The sharded preload path routes through EnrollBatch; the bad listen
	// address still aborts before serving.
	if err := run([]string{"-local-shards", "3", "-preload", "3", "-addr", "256.256.256.256:0"}); err == nil {
		t.Fatal("expected listen error on sharded preload")
	}
}
