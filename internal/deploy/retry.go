package deploy

import (
	"fmt"
	"time"

	"github.com/carbonedge/carbonedge/internal/numeric"
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

// retrier is the retry budget, try deadline, backoff jitter and sleeper both
// tiers run each slot's exchange under (link.roundTrip).
type retrier struct {
	cfg RetryConfig // defaults applied
	// timeout bounds each try (the tier's SlotTimeout; 0: none).
	timeout time.Duration
	// stream names the tier's jitter derivation (see backoffDelay).
	stream string
	// sleep performs retry backoff; injectable so chaos tests replay with
	// zero wall time. Defaults to time.Sleep.
	sleep func(time.Duration)
}

func newRetrier(cfg RetryConfig, timeout time.Duration, stream string) *retrier {
	//lint:allow nodeterm retry backoff is real wall-clock waiting; chaos tests inject a zero-time sleep
	return &retrier{cfg: cfg.withDefaults(), timeout: timeout, stream: stream, sleep: time.Sleep}
}

// backoffDelay returns the jittered backoff before 1-based retry attempt of
// unit's slot: half the capped exponential delay plus a uniformly random
// half drawn from SplitRNG(seed, "<stream>-<unit>-<slot>-<attempt>"). The
// delay is a pure function of those, drawn only when a retry happens, so
// the sleep sequence replays bit-for-bit and a coordinator that adopts the
// unit mid-run backs off exactly as its first owner would have. The sleep
// itself goes through the injectable sleeper, so tests compress chaos runs
// to zero wall time without touching the delays.
func (r *retrier) backoffDelay(seed int64, unit, slot, attempt int) time.Duration {
	d := r.cfg.baseDelay
	for k := 1; k < attempt && d < r.cfg.maxDelay; k++ {
		d *= 2
	}
	if d > r.cfg.maxDelay {
		d = r.cfg.maxDelay
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	rng := numeric.SplitRNG(seed, fmt.Sprintf("%s-%d-%d-%d", r.stream, unit, slot, attempt))
	return half + time.Duration(rng.Int63n(int64(half)+1))
}
