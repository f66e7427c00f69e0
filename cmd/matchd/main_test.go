package main

import (
	"net"
	"reflect"
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

// TestParseShards pins how -shards and -replicas split: addresses are
// trimmed and blanks dropped, -replicas needs one ';'-separated group
// per -shards address, and a group may be empty (a slot without
// replicas).
func TestParseShards(t *testing.T) {
	for _, c := range []struct {
		name, shards, replicas string
		primaries              []string
		groups                 [][]string
		fails                  bool
	}{
		{name: "no shards"},
		{name: "trimmed and blanks dropped", shards: " a:1 ,, b:2 ,", primaries: []string{"a:1", "b:2"}},
		{name: "one group per slot", shards: "a:1,b:2", replicas: "r0:1,r1:1;r2:1",
			primaries: []string{"a:1", "b:2"}, groups: [][]string{{"r0:1", "r1:1"}, {"r2:1"}}},
		{name: "slot without replicas", shards: "a:1,b:2,c:3", replicas: "r0:1;;r2:1",
			primaries: []string{"a:1", "b:2", "c:3"}, groups: [][]string{{"r0:1"}, nil, {"r2:1"}}},
		{name: "too few groups", shards: "a:1,b:2", replicas: "r0:1", fails: true},
		{name: "too many groups", shards: "a:1", replicas: "r0:1;r1:1", fails: true},
		{name: "replicas without shards", replicas: "r0:1", fails: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			primaries, groups, err := parseShards(c.shards, c.replicas)
			if c.fails {
				if err == nil {
					t.Fatalf("accepted: %q, %q", primaries, groups)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(primaries, c.primaries) || !reflect.DeepEqual(groups, c.groups) {
				t.Fatalf("got %q, %q; want %q, %q", primaries, groups, c.primaries, c.groups)
			}
		})
	}
}
