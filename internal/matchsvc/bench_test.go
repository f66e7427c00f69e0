package matchsvc

// Allocation-reporting benchmarks for the RPC hot path: the shard
// router fans every 1:N search across remote backends, so per-RPC
// garbage on client and server multiplies by the shard count. The
// frame-buffer pooling keeps the framing layer allocation-free; what
// remains is the decoded template and the result payloads.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchService boots a loopback server with n enrollments and returns a
// connected client.
func benchService(b *testing.B, n int) *Client {
	b.Helper()
	srv := NewServer(nil, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	b.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	cli := dialT(b, addr)
	b.Cleanup(func() { cli.Close() })
	tpls := testImpressions(b, n, "D0", 0)
	items := make([]Enrollment, n)
	for i, tpl := range tpls {
		items[i] = Enrollment{ID: fmt.Sprintf("subj-%04d", i), DeviceID: "D0", Template: tpl}
	}
	if err := cli.EnrollBatch(context.Background(), items); err != nil {
		b.Fatal(err)
	}
	return cli
}

// BenchmarkVerifyRPC measures one 1:1 verification round trip,
// reporting allocations across client framing, server framing, decode,
// and the pooled matcher session.
func BenchmarkVerifyRPC(b *testing.B) {
	cli := benchService(b, 8)
	probe := testImpressions(b, 1, "D0", 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Verify(context.Background(), fmt.Sprintf("subj-%04d", i%8), probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIdentifyRPC measures one 1:N identification round trip
// against a small gallery.
func BenchmarkIdentifyRPC(b *testing.B) {
	cli := benchService(b, 32)
	probe := testImpressions(b, 1, "D0", 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, _, err := cli.IdentifyEx(context.Background(), probe, 5)
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkPingRPC isolates the framing layer: after warm-up a ping
// performs no per-request client-side allocations.
func BenchmarkPingRPC(b *testing.B) {
	cli := benchService(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Ping(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDepth drives op from `depth` concurrent workers over one client
// until b.N operations complete, reporting p50/p99 per-op latency next
// to the usual throughput numbers. With the multiplexed transport all
// depths share pooled connections: depth 1 measures a request's full
// round trip, deeper runs measure how well the wire pipelines.
func benchDepth(b *testing.B, depth int, op func() error) {
	b.ReportAllocs()
	var next atomic.Int64
	lats := make([][]time.Duration, depth)
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				t0 := time.Now()
				if err := op(); err != nil {
					b.Error(err)
					return
				}
				lats[w] = append(lats[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	b.ReportMetric(float64(all[len(all)/2]), "p50-ns")
	b.ReportMetric(float64(all[len(all)*99/100]), "p99-ns")
}

func benchIdentifyDepth(b *testing.B, depth int) {
	cli := benchService(b, 32)
	cli.SetPoolSize(2)
	probe := testImpressions(b, 1, "D0", 1)[0]
	benchDepth(b, depth, func() error {
		cands, _, err := cli.IdentifyEx(context.Background(), probe, 5)
		if err == nil && len(cands) == 0 {
			return errors.New("no candidates")
		}
		return err
	})
}

func BenchmarkIdentifyRPCDepth1(b *testing.B)  { benchIdentifyDepth(b, 1) }
func BenchmarkIdentifyRPCDepth8(b *testing.B)  { benchIdentifyDepth(b, 8) }
func BenchmarkIdentifyRPCDepth64(b *testing.B) { benchIdentifyDepth(b, 64) }

func benchPingDepth(b *testing.B, depth int) {
	cli := benchService(b, 1)
	cli.SetPoolSize(2)
	benchDepth(b, depth, func() error {
		return cli.Ping(context.Background())
	})
}

func BenchmarkPingRPCDepth1(b *testing.B)  { benchPingDepth(b, 1) }
func BenchmarkPingRPCDepth64(b *testing.B) { benchPingDepth(b, 64) }
