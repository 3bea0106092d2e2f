package numeric

import (
	"errors"
	"math"
	"testing"
)

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
