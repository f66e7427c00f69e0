package matchsvc

// The retry policy. Only transport-class failures (errors.Is ErrTransport:
// dial errors, torn frames, connections retired by the server's idle
// deadline) are retried, and only for idempotent operations — the
// server answered nothing, or the answer was lost, so re-asking cannot
// double-apply. A remote error (ErrRemote), a context cancellation, or
// the fallback request timeout is the answer and is never retried.
// Retries are off by default; enable with ClientOptions.Retry.

import (
	"context"
	"time"
)

// Retry configures transparent retries of idempotent operations
// (Ping, Verify, Identify, Count, ServiceStats and the replica sync
// reads) after transport failures.
type Retry struct {
	// Attempts is the total number of tries, including the first;
	// values below 2 disable retries.
	Attempts int
	// BaseDelay seeds the capped exponential backoff before the second
	// attempt; 0 means 5ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; 0 means 500ms.
	MaxDelay time.Duration
}

func (r Retry) enabled() bool { return r.Attempts > 1 }

// idempotent reports whether re-asking op cannot double-apply.
func idempotent(op byte) bool {
	switch op {
	case OpPing, OpVerify, OpIdentifyEx, OpCount, OpStats, OpSyncSnapshot, OpSyncTail:
		return true
	}
	return false
}

// delay returns the jittered backoff before the given retry (1 is the
// first retry). jitter is uniform in [0,1) and spreads the delay over
// [d/2, d] so synchronized clients desynchronize.
func (r Retry) delay(retry int, jitter float64) time.Duration {
	base := r.BaseDelay
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	max := r.MaxDelay
	if max <= 0 {
		max = 500 * time.Millisecond
	}
	d := base
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= max || d <= 0 {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(jitter*float64(half))
}

// backoff sleeps the policy's jittered delay before retry number
// `retry`, honoring cancellation: the context is checked between
// attempts and interrupts the wait.
func (c *Client) backoff(ctx context.Context, retry int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.jmu.Lock()
	jitter := c.jitter.Float64()
	c.jmu.Unlock()
	t := time.NewTimer(c.opts.Retry.delay(retry, jitter))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
