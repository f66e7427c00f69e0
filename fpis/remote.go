package fpis

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	"fpinterop/internal/shard"
	"fpinterop/internal/topology"
)

// Dial connects to one remote matchd instance and returns a Service
// speaking the wire protocol to it. The context bounds the connection
// establishment, protocol handshake included: a pre-cancelled context
// fails fast without dialing, and a peer that is not a matchd fails
// the Dial rather than the first call.
// Per-call deadlines derive from each call's own context (with the
// WithRequestTimeout fallback when a context has no deadline).
func Dial(ctx context.Context, addr string, opts ...Option) (Service, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	// One connection has no store, router or shard list to configure.
	if !reflect.DeepEqual(cfg, topology.Config{Client: cfg.Client, Metrics: cfg.Metrics}) {
		return nil, errors.New("fpis: Dial takes only the connection options (WithRequestTimeout, WithDialTimeout, WithPoolSize, WithRetry, WithKeepalive) and WithMetrics")
	}
	if err := cfg.Client.Validate(); err != nil {
		return nil, fmt.Errorf("fpis: %w", err)
	}
	cli, err := topology.Dial(ctx, addr, cfg.Client, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	// The wire client already returns the facade's sentinels (the
	// response status byte names them), so errors pass through untouched.
	return newService("remote", cfg.Metrics, shard.NewRemote(addr, cli), nil, cli.ServiceStats, cli.Close), nil
}
