package topology

import (
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
		"local shards":      {LocalShards: 3, Parallelism: 2, Index: true, WALDir: "d", ShardTimeout: time.Second, HedgeDelay: time.Millisecond, Policy: shard.FailClosed},
		"front":             {Shards: front, Replicas: [][]string{{"r:1"}, nil}, Client: matchsvc.ClientOptions{PoolSize: 4, Keepalive: -1}, HedgeDelay: time.Millisecond},
		"one conn, spelled": {Client: matchsvc.ClientOptions{PoolSize: 1}},
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
		"parallelism on a front":       {Shards: front, Parallelism: 2},
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
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
