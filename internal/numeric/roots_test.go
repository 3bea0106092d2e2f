package numeric

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// NewtonBisect finds a root of f in [lo, hi] combining Newton steps (using
// the derivative df) with bisection safeguards. It assumes f is monotone
// enough on [lo, hi] that f(lo) and f(hi) bracket the root; Newton steps that
// leave the bracket fall back to bisection. It is the closure form of
// tsallisRoot: the oracle TestTsallisWeightsMatchesClosureSolver holds the
// in-place solve to.
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

func TestNewtonBisect(t *testing.T) {
	f := func(x float64) float64 { return x*x*x - 8 }
	df := func(x float64) float64 { return 3 * x * x }
	got, err := NewtonBisect(f, df, 0, 10, 1e-13)
	if err != nil {
		t.Fatalf("NewtonBisect: %v", err)
	}
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("root = %v, want 2", got)
	}
}

func TestNewtonBisectBadDerivative(t *testing.T) {
	// A derivative that is wrong (always zero) must still converge via the
	// bisection safeguard.
	f := func(x float64) float64 { return x - 0.3 }
	df := func(float64) float64 { return 0 }
	got, err := NewtonBisect(f, df, 0, 1, 1e-12)
	if err != nil {
		t.Fatalf("NewtonBisect: %v", err)
	}
	if math.Abs(got-0.3) > 1e-9 {
		t.Errorf("root = %v, want 0.3", got)
	}
}

func TestNewtonBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x + 10 }
	df := func(float64) float64 { return 1 }
	if _, err := NewtonBisect(f, df, 0, 1, 1e-12); !errors.Is(err, ErrNoBracket) {
		t.Fatalf("err = %v, want ErrNoBracket", err)
	}
}
