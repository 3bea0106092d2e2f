//go:build amd64

package bad

// qdotInt8SSE2's generic twin drifted: int64 accumulators instead of int32,
// so signature matching must reject it even though the name family matches.
func qdotInt8SSE2(out []int32, a, b []int8, n, k int) // want `qdotInt8SSE2 has no generic fallback`
