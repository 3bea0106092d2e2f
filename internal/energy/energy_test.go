package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestInferenceEnergy(t *testing.T) {
	tests := []struct {
		name string
		phi  float64
		m    int
		want float64
	}{
		{"zero samples", 8e-8, 0, 0},
		{"negative samples", 8e-8, -3, 0},
		{"hundred samples", 8e-8, 100, 8e-6},
		{"one sample", 6e-8, 1, 6e-8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := InferenceEnergy(tt.phi, tt.m); math.Abs(got-tt.want) > 1e-20 {
				t.Errorf("InferenceEnergy = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTransferEnergy(t *testing.T) {
	if got := TransferEnergy(TransferEnergyPerByte, 0); got != 0 {
		t.Errorf("zero size = %v", got)
	}
	if got := TransferEnergy(TransferEnergyPerByte, -5); got != 0 {
		t.Errorf("negative size = %v", got)
	}
	want := 1.02e-16 * 1e6
	if got := TransferEnergy(TransferEnergyPerByte, 1e6); math.Abs(got-want) > 1e-24 {
		t.Errorf("1MB transfer = %v, want %v", got, want)
	}
}

func TestMeterEmission(t *testing.T) {
	m, err := NewMeter(DefaultEmissionRate)
	if err != nil {
		t.Fatalf("NewMeter: %v", err)
	}
	e1 := m.Emission(2) // 2 kWh -> 1000 g
	e2 := m.Emission(4) // 4 kWh -> 2000 g
	if e1 != 1000 || e2 != 2000 {
		t.Errorf("emissions = %v, %v", e1, e2)
	}
	if m.Emission(10) != 5000 {
		t.Errorf("Emission(10) = %v", m.Emission(10))
	}
}

func TestNewMeterNegativeRate(t *testing.T) {
	if _, err := NewMeter(-0.1); err == nil {
		t.Error("expected error for negative rate")
	}
}

// TestNewMeterRejectsNonFiniteRate: a NaN or infinite rate passes a `< 0`
// test and then turns every emission, and with it the ledger and the fit,
// into NaN or Inf many slots away from the bad flag.
func TestNewMeterRejectsNonFiniteRate(t *testing.T) {
	for _, tt := range []struct {
		rate float64
		ok   bool
	}{
		{0, true},
		{500, true},
		{-0.1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		if _, err := NewMeter(tt.rate); (err == nil) != tt.ok {
			t.Errorf("NewMeter(%v): err = %v, want ok = %v", tt.rate, err, tt.ok)
		}
	}
}

func TestPaperConstantsSane(t *testing.T) {
	if MinInferEnergy >= MaxInferEnergy {
		t.Error("energy band inverted")
	}
	// A 1 MB model transfer must cost far less energy than inferring one
	// slot of typical workload (the paper's transfer energy is tiny).
	transfer := TransferEnergy(TransferEnergyPerByte, 1<<20)
	infer := InferenceEnergy(MinInferEnergy, 100)
	if transfer > infer {
		t.Errorf("transfer %v > inference %v", transfer, infer)
	}
}

// Property: emission is linear in energy and never negative for non-negative
// inputs.
func TestEmissionLinearityProperty(t *testing.T) {
	m, err := NewMeter(0.5)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lhs := m.Emission(a + b)
		rhs := m.Emission(a) + m.Emission(b)
		scale := math.Max(1, lhs)
		return math.Abs(lhs-rhs) <= 1e-9*scale && lhs >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
