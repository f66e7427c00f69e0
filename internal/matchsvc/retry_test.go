package matchsvc

import (
	"math"
	"testing"
	"time"
)

// TestRetryDelay pins the backoff schedule: the base doubles per retry
// up to the cap, zero values take the documented defaults, and jitter
// spreads each delay over [d/2, d).
func TestRetryDelay(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name   string
		r      Retry
		retry  int
		jitter float64
		want   time.Duration
	}{
		{"default base, first retry, no jitter", Retry{}, 1, 0, 5 * ms / 2},
		{"default base, first retry, half jitter", Retry{}, 1, 0.5, 5*ms/2 + 5*ms/4},
		{"default base doubles", Retry{}, 3, 0, 10 * ms},
		{"default cap", Retry{}, 12, 0, 250 * ms},
		{"custom base and cap", Retry{BaseDelay: 3 * ms, MaxDelay: 20 * ms}, 3, 0, 6 * ms},
		{"custom cap reached", Retry{BaseDelay: 3 * ms, MaxDelay: 20 * ms}, 4, 0, 10 * ms},
		{"base above cap", Retry{BaseDelay: time.Second, MaxDelay: 40 * ms}, 1, 0, 20 * ms},
		{"doubling overflow clamps to the cap", Retry{BaseDelay: 1 << 62, MaxDelay: math.MaxInt64}, 2, 0, math.MaxInt64 / 2},
		{"negative values take the defaults", Retry{BaseDelay: -ms, MaxDelay: -ms}, 2, 0, 5 * ms},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := c.r.delay(c.retry, c.jitter); got != c.want {
				t.Fatalf("delay(%d, %v) = %v, want %v", c.retry, c.jitter, got, c.want)
			}
		})
	}
	// Any jitter below 1 stays below the undithered delay.
	if got := (Retry{}).delay(1, 0.999999); got >= 5*ms || got < 5*ms/2 {
		t.Fatalf("jitter 0.999999 gave %v, want within [2.5ms, 5ms)", got)
	}
}
