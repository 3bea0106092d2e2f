package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when a root finder is called on an interval whose
// endpoints do not bracket a sign change.
var ErrNoBracket = errors.New("numeric: interval does not bracket a root")

// ErrNoConverge is returned when an iterative method exhausts its iteration
// budget without reaching the requested tolerance.
var ErrNoConverge = errors.New("numeric: iteration did not converge")

const (
	// defaultTol is the absolute tolerance used when the caller passes a
	// non-positive tolerance.
	defaultTol = 1e-12

	// maxRootIters bounds every scalar root-finding loop.
	maxRootIters = 200
)

// NewtonBisect finds a root of f in [lo, hi] combining Newton steps (using
// the derivative df) with bisection safeguards. It assumes f is monotone
// enough on [lo, hi] that f(lo) and f(hi) bracket the root; Newton steps that
// leave the bracket fall back to bisection. This is the workhorse for the
// Tsallis normalization constant, whose defining function is smooth and
// strictly monotone.
func NewtonBisect(f, df func(float64) float64, lo, hi, tol float64) (float64, error) {
	if tol <= 0 {
		tol = defaultTol
	}
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, lo, flo, hi, fhi)
	}
	x := (lo + hi) / 2
	for i := 0; i < maxRootIters; i++ {
		fx := f(x)
		if fx == 0 || hi-lo <= tol {
			return x, nil
		}
		// Shrink the bracket.
		if (fx > 0) == (fhi > 0) {
			hi, fhi = x, fx
		} else {
			lo, flo = x, fx
		}
		// Try a Newton step from x; fall back to bisection when the step
		// leaves the bracket or the derivative is degenerate.
		dfx := df(x)
		next := x - fx/dfx
		if dfx == 0 || math.IsNaN(next) || next <= lo || next >= hi {
			next = (lo + hi) / 2
		}
		if math.Abs(next-x) <= tol {
			return next, nil
		}
		x = next
	}
	return x, fmt.Errorf("%w: NewtonBisect after %d iterations", ErrNoConverge, maxRootIters)
}
