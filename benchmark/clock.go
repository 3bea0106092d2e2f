package main

import "time"

// processStart anchors every timestamp the harness records; spans and slot
// stamps are nanosecond offsets from it.
var processStart = wallNow()

// wallNow is the harness's only wall-clock read. Everything that times
// anything goes through sinceStart, so the repository's determinism linter
// has exactly one site to bless.
func wallNow() time.Time {
	//lint:allow nodeterm the benchmark exists to measure wall time; no Result bit depends on it (digests are checked against clock-free reference runs)
	return time.Now()
}

// sinceStart returns the monotonic time elapsed since process start.
func sinceStart() time.Duration { return wallNow().Sub(processStart) }

// seconds, millis and micros convert a duration to the float units the
// metrics are reported in.
func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
