//go:build !amd64

package nn

// eachDispatchFloor calls fn once: off amd64 the float kernels have no
// vector tier to force off, so the native floor is the only one
// (simd_amd64_test.go has the amd64 ladder).
func eachDispatchFloor(fn func(floor string)) { fn("native") }
