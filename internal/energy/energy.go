// Package energy implements the paper's energy and carbon accounting:
//
//	E_{i,n}^t = phi_n * M_i^t        (inference energy, kWh)
//	F_{i,n}   = vartheta_i * W_n     (model transfer energy, kWh)
//	emission  = rho * energy         (in rho's mass unit)
//
// with the paper's constants: per-sample inference energy in [6,10]e-8 kWh,
// transfer energy 1.02e-16 kWh per byte, and a carbon emission rate of
// 500 g/kWh. Every shipped configuration, the allowance ledger and the cap
// count grams; the meter only multiplies, so emissions come out in whatever
// mass unit the rate is stated in, and it keeps no totals: the engine's
// Result counts them.
package energy

import (
	"fmt"

	"github.com/carbonedge/carbonedge/internal/numeric"
)

// Paper-calibrated constants.
const (
	// DefaultEmissionRate is the paper's rho: grams of CO2 emitted per kWh.
	DefaultEmissionRate float64 = 500
	// MinInferEnergy and MaxInferEnergy bound per-sample inference energy
	// across models (kWh/sample).
	MinInferEnergy = 6e-8
	MaxInferEnergy = 10e-8
	// TransferEnergyPerByte is kWh consumed per byte of model shipped from
	// the cloud to an edge.
	TransferEnergyPerByte = 1.02e-16
)

// Meter converts energy to emissions at one run's rate.
type Meter struct {
	rate float64 // CO2 mass per kWh (g/kWh in every shipped config)
}

// NewMeter creates a meter with the given emission rate: CO2 mass per kWh,
// g/kWh (the paper's rho = 500) in every shipped config. The rate must be
// finite and non-negative.
func NewMeter(rate float64) (*Meter, error) {
	if !numeric.FiniteNonNeg(rate) {
		return nil, fmt.Errorf("energy: invalid emission rate %g", rate)
	}
	return &Meter{rate: rate}, nil
}

// InferenceEnergy returns E = phi * m for m samples at phi kWh each.
func InferenceEnergy(phiKWh float64, m int) float64 {
	if m <= 0 {
		return 0
	}
	return phiKWh * float64(m)
}

// TransferEnergy returns F = vartheta * W for a model of sizeBytes shipped at
// varthetaKWhPerByte.
func TransferEnergy(varthetaKWhPerByte float64, sizeBytes int64) float64 {
	if sizeBytes <= 0 {
		return 0
	}
	return varthetaKWhPerByte * float64(sizeBytes)
}

// Emission converts energy to emission at the meter's rate, in the rate's
// mass unit (grams at rho = 500 g/kWh).
func (m *Meter) Emission(kwh float64) float64 { return float64(kwh * m.rate) }
