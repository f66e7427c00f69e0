package topology

import (
	"math"
	"testing"
	"time"

	"fpinterop/internal/matchsvc"
	"fpinterop/internal/shard"
)

// TestValidate pins the applicability list both fpis.New and matchd
// answer to: every rule once, and the shapes that must keep passing.
func TestValidate(t *testing.T) {
	front := []string{"a:1", "b:1"}
	for name, c := range map[string]Config{
		"zero value":        {},
		"indexed WAL":       {Index: true, IndexFanout: 32, WALDir: "d", CompactEvery: 8},
		"local shards":      {LocalShards: 3, Index: true, WALDir: "d", ShardTimeout: time.Second, HedgeDelay: time.Millisecond, Policy: shard.FailClosed},
		"front":             {Shards: front, Replicas: [][]string{{"r:1"}, nil}, Client: matchsvc.ClientOptions{PoolSize: 4, Keepalive: -1}, HedgeDelay: time.Millisecond},
		"one conn, spelled": {Client: matchsvc.ClientOptions{PoolSize: 1}},
		"zero pool size":    {Shards: front, Client: matchsvc.ClientOptions{PoolSize: 0, Keepalive: 0}},
		"hedging off":       {LocalShards: 2, HedgeDelay: 0},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	for name, c := range map[string]Config{
		"negative local shards":        {LocalShards: -1},
		"negative fanout":              {Index: true, IndexFanout: -1},
		"negative hedge delay":         {LocalShards: 2, HedgeDelay: -1},
		"local and remote shards":      {LocalShards: 2, Shards: front},
		"index on a front":             {Shards: front, Index: true},
		"WAL on a front":               {Shards: front, WALDir: "d"},
		"fanout without index":         {IndexFanout: 8},
		"compaction without WAL":       {CompactEvery: 8},
		"shard timeout, one store":     {ShardTimeout: time.Second},
		"hedging, one store":           {HedgeDelay: time.Millisecond},
		"fail-closed, one store":       {Policy: shard.FailClosed},
		"pool without shards":          {Client: matchsvc.ClientOptions{PoolSize: 2}},
		"retry on local shards":        {LocalShards: 2, Client: matchsvc.ClientOptions{Retry: matchsvc.Retry{Attempts: 3}}},
		"request timeout, one store":   {Client: matchsvc.ClientOptions{RequestTimeout: time.Second}},
		"replicas without shards":      {Replicas: [][]string{{"r:1"}}},
		"replicas for the wrong arity": {Shards: front, Replicas: [][]string{{"r:1"}}},
		"negative compaction":          {WALDir: "d", CompactEvery: -1},
		"negative shard timeout":       {LocalShards: 2, ShardTimeout: -1},
		"negative pool size":           {Shards: front, Client: matchsvc.ClientOptions{PoolSize: -1}},
		"negative retry attempts":      {Shards: front, Client: matchsvc.ClientOptions{Retry: matchsvc.Retry{Attempts: -1}}},
		"negative retry base delay":    {Shards: front, Client: matchsvc.ClientOptions{Retry: matchsvc.Retry{BaseDelay: -1}}},
		"negative retry max delay":     {Shards: front, Client: matchsvc.ClientOptions{Retry: matchsvc.Retry{MaxDelay: -1}}},
		"negative request timeout":     {Shards: front, Client: matchsvc.ClientOptions{RequestTimeout: -1}},
		"negative dial timeout":        {Shards: front, Client: matchsvc.ClientOptions{RedialTimeout: -1}},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestFrontClientBounds pins the connection bounds Build gives a front:
// cmd/matchd sets neither timeout, so its shards are dialed with a
// round trip bounded at twice -shard-timeout (2 min without one) and a
// 5 s connection attempt, whatever -pool-size, -retry and -keepalive
// say; a library front keeps whichever timeout its description sets.
func TestFrontClientBounds(t *testing.T) {
	bounded := func(request time.Duration) matchsvc.ClientOptions {
		return matchsvc.ClientOptions{RequestTimeout: request, RedialTimeout: 5 * time.Second}
	}
	rows := []struct {
		shardTimeout time.Duration
		client, want matchsvc.ClientOptions
	}{
		{0, matchsvc.ClientOptions{}, bounded(2 * time.Minute)},
		{time.Nanosecond, matchsvc.ClientOptions{}, bounded(2 * time.Nanosecond)},
		{5 * time.Second, matchsvc.ClientOptions{}, bounded(10 * time.Second)},
		{time.Hour, matchsvc.ClientOptions{}, bounded(2 * time.Hour)},
		{math.MaxInt64, matchsvc.ClientOptions{}, bounded(2 * time.Minute)}, // doubling overflows
		{math.MaxInt64/2 + 1, matchsvc.ClientOptions{}, bounded(2 * time.Minute)},
		{time.Second, matchsvc.ClientOptions{RequestTimeout: time.Minute}, matchsvc.ClientOptions{RequestTimeout: time.Minute, RedialTimeout: 5 * time.Second}},
		{0, matchsvc.ClientOptions{RedialTimeout: time.Second}, matchsvc.ClientOptions{RequestTimeout: 2 * time.Minute, RedialTimeout: time.Second}},
	}
	for _, r := range rows {
		// The flags matchd passes through untouched.
		for _, pool := range []int{0, 1, 4} {
			for _, attempts := range []int{0, 1, 3} {
				for _, keepalive := range []time.Duration{-1, 0, 30 * time.Second} {
					in, want := r.client, r.want
					in.PoolSize, in.Retry.Attempts, in.Keepalive = pool, attempts, keepalive
					want.PoolSize, want.Retry.Attempts, want.Keepalive = pool, attempts, keepalive
					if got := (Config{Shards: []string{"a:1"}, ShardTimeout: r.shardTimeout, Client: in}).frontClient(); got != want {
						t.Errorf("shard timeout %v, client %+v: got %+v, want %+v", r.shardTimeout, in, got, want)
					}
				}
			}
		}
	}
}
