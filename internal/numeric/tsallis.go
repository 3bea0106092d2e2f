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

// TsallisWeights solves the online-mirror-descent step of the paper's
// Algorithm 1 (line 3):
//
//	p = argmin_{p in simplex} { <p, C> - sum_n (4*sqrt(p_n) - 2*p_n)/eta }
//
// which is mirror descent with the alpha=1/2 Tsallis entropy regularizer
// (Zimmert & Seldin's Tsallis-INF). The KKT stationarity condition gives
//
//	sqrt(p_n) = 2 / (eta * (C_n + 2/eta + lambda))
//
// for a normalizing multiplier lambda chosen so that sum_n p_n = 1. The sum
// is strictly decreasing in lambda, so the multiplier is found by a
// safeguarded Newton iteration on a provable bracket, matching the paper's
// O(log(1/eps) + N) complexity for this step.
//
// out may be nil or a reusable slice of len(C); the resulting probability
// vector is returned. out doubles as the solver's only scratch (it holds the
// shifted losses until the last loop turns them into probabilities), so a
// call with a reused out allocates nothing; when an error is returned its
// contents are unspecified.
func TsallisWeights(c []float64, eta float64, out []float64) ([]float64, error) {
	n := len(c)
	if n == 0 {
		return nil, fmt.Errorf("numeric: TsallisWeights on empty loss vector")
	}
	if eta <= 0 || math.IsNaN(eta) || math.IsInf(eta, 0) {
		return nil, fmt.Errorf("numeric: TsallisWeights needs eta > 0, got %g", eta)
	}
	if out == nil {
		out = make([]float64, n)
	}
	if len(out) != n {
		return nil, fmt.Errorf("numeric: out length %d != %d", len(out), n)
	}
	if n == 1 {
		out[0] = 1
		return out, nil
	}

	// Shift losses so the smallest is zero: d_n = C_n - min C >= 0 and
	// parametrize t = lambda + min C + 2/eta > 0 so that
	// p_n(t) = 4 / (eta^2 (d_n + t)^2).
	minC := c[0]
	for _, v := range c[1:] {
		if v < minC {
			minC = v
		}
	}
	d := out
	for i, v := range c {
		d[i] = v - minC
	}

	// Bracket: at t = 2/eta the d=0 term alone contributes exactly 1, so
	// f(2/eta) >= 0; at t = 2*sqrt(n)/eta every term is at most 1/n, so
	// f <= 0 there up to rounding. Nudge the upper end outward until the
	// sign change is numerically visible (at most a few doublings, since f
	// decreases to -1).
	lo := 2 / eta
	hi := 2 * math.Sqrt(float64(n)) / eta
	for i := 0; tsallisExcess(d, eta, hi) > 0 && i < 64; i++ {
		hi *= 1 + math.Ldexp(1, i-30) // 1+2^-30, 1+2^-29, ... then doubling
	}
	t, err := tsallisRoot(d, eta, lo, hi, 1e-13*lo)
	if err != nil {
		return nil, fmt.Errorf("tsallis normalization: %w", err)
	}

	total := 0.0
	for i, di := range d {
		x := eta * (di + t)
		out[i] = 4 / (x * x)
		total += out[i]
	}
	// The root is accurate to ~1e-13 relative; renormalize the residual so
	// downstream samplers see an exact distribution.
	for i := range out {
		out[i] /= total
	}
	return out, nil
}

// tsallisExcess is f(t) = sum_n p_n(t) - 1, whose root normalizes p.
func tsallisExcess(d []float64, eta, t float64) float64 {
	s := 0.0
	for _, di := range d {
		x := eta * (di + t)
		s += 4 / (x * x)
	}
	return s - 1
}

// tsallisSlope is f'(t).
func tsallisSlope(d []float64, eta, t float64) float64 {
	s := 0.0
	for _, di := range d {
		x := di + t
		s += -8 / (eta * eta * x * x * x)
	}
	return s
}

// tsallisRoot is NewtonBisect over tsallisExcess and tsallisSlope: the same
// steps at the same iterates, with the two functions called directly instead
// of through closures that would be allocated once per block of every edge.
func tsallisRoot(d []float64, eta, lo, hi, tol float64) (float64, error) {
	if tol <= 0 {
		tol = defaultTol
	}
	flo, fhi := tsallisExcess(d, eta, lo), tsallisExcess(d, eta, hi)
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
		fx := tsallisExcess(d, eta, x)
		if fx == 0 || hi-lo <= tol {
			return x, nil
		}
		if (fx > 0) == (fhi > 0) {
			hi, fhi = x, fx
		} else {
			lo = x
		}
		dfx := tsallisSlope(d, eta, x)
		next := x - fx/dfx
		if dfx == 0 || math.IsNaN(next) || next <= lo || next >= hi {
			next = (lo + hi) / 2
		}
		if math.Abs(next-x) <= tol {
			return next, nil
		}
		x = next
	}
	return x, fmt.Errorf("%w: Tsallis root after %d iterations", ErrNoConverge, maxRootIters)
}
