//go:build amd64

package bad

import "testing"

func TestSubEquivalence(t *testing.T) {
	subAVX2(nil, nil)
	_ = t
}

func TestQdotInt8Pinned(t *testing.T) {
	qdotInt8SSE2(nil, nil, nil, 0, 0)
	_ = t
}

func TestClampPinned(t *testing.T) {
	clampAVX2(nil, 0, 1)
	_ = t
}
