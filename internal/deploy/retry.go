package deploy

import (
	"fmt"
	"math/rand"
	"time"
)

// RetryConfig bounds the per-slot retry behavior of one edge's assign/report
// exchange. The zero value disables retries entirely, which preserves the
// historical fail-fast deployment semantics (and sim/deploy parity).
type RetryConfig struct {
	// Attempts is the retry budget per slot per edge: after the initial try
	// fails transiently, up to Attempts further tries are made before the
	// edge's Step reports failure. 0 disables retries.
	Attempts int

	// The backoff between tries and the wait for a dropped peer: retry k
	// sleeps a jittered min(baseDelay«(k-1), maxDelay), and each try waits up
	// to resumeWait for the link to come back. Zero selects the defaults
	// below; only the package's chaos suites set them, to compress a run.
	baseDelay, maxDelay, resumeWait time.Duration
}

// Backoff defaults applied by withDefaults.
const (
	defaultBaseDelay  = 10 * time.Millisecond
	defaultMaxDelay   = time.Second
	defaultResumeWait = time.Second
)

// validate rejects a negative budget. It never reaches the wire, so its plain
// errors stay outside the wire error taxonomy.
func (r RetryConfig) validate() error {
	if r.Attempts < 0 {
		return fmt.Errorf("deploy: negative retry budget %d", r.Attempts)
	}
	return nil
}

// withDefaults fills zero fields.
func (r RetryConfig) withDefaults() RetryConfig {
	if r.baseDelay <= 0 {
		r.baseDelay = defaultBaseDelay
	}
	if r.maxDelay <= 0 {
		r.maxDelay = defaultMaxDelay
	}
	if r.resumeWait <= 0 {
		r.resumeWait = defaultResumeWait
	}
	return r
}

// backoffDelay returns the jittered backoff before 1-based retry attempt k:
// half the capped exponential delay plus a uniformly random half, drawn from
// the caller's SplitRNG stream so the sleep sequence replays bit-for-bit.
// The sleep itself is performed through the retrier's injectable sleeper, so
// tests compress chaos runs to zero wall time without touching the delays.
func backoffDelay(cfg RetryConfig, attempt int, rng *rand.Rand) time.Duration {
	d := cfg.baseDelay
	for k := 1; k < attempt && d < cfg.maxDelay; k++ {
		d *= 2
	}
	if d > cfg.maxDelay {
		d = cfg.maxDelay
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// retrier is the retry budget and the backoff sleeper both tiers run each
// slot's exchange under (link.roundTrip).
type retrier struct {
	cfg RetryConfig // defaults applied
	// sleep performs retry backoff; injectable so chaos tests replay with
	// zero wall time. Defaults to time.Sleep.
	sleep func(time.Duration)
}

func newRetrier(cfg RetryConfig) *retrier {
	//lint:allow nodeterm retry backoff is real wall-clock waiting; chaos tests inject a zero-time sleep
	return &retrier{cfg: cfg.withDefaults(), sleep: time.Sleep}
}
