package nn

import (
	"fmt"
	"math"
)

// Int8 weight quantization: each parameter tensor is held as int8 values
// with one symmetric per-tensor scale, quartering the checkpoint size
// relative to the float32 wire format — smaller checkpoints mean cheaper
// model downloads (the paper's F_{i,n} = vartheta * W_n) at a measurable
// accuracy cost.

// QuantizedTensor is one parameter tensor stored once in its int8 form:
// values q with a single symmetric per-tensor scale, so the dequantized
// value is float64(q)*Scale. Scale is maxAbs/127 in float64, and q is an
// integer, so a weight that rounds to zero dequantizes to +0 whatever its
// sign. A Scale of zero marks an all-zero tensor (the dequantized values are
// all zero, and applying it leaves the target untouched).
type QuantizedTensor struct {
	Scale float64
	Data  []int8
}

// QuantizedWeights holds a network's parameters in int8 form, aligned with
// the network's Params() order. This is the shared storage behind every
// "-q8" zoo arm: one int8 buffer per tensor instead of a cloned float64
// network (8 bytes/param down to ~1), with the float view materialized on
// demand via ApplyTo.
type QuantizedWeights struct {
	Tensors []QuantizedTensor
}

// quantizeSlice quantizes one float tensor symmetrically: scale = maxAbs/127
// (0 for an all-zero tensor), q = round(v/scale) clamped to [-127, 127],
// with round-half-away-from-zero (math.Round). moved reports whether any
// byte written differs from the one dst held, compared as it is overwritten.
func quantizeSlice(dst []int8, src []float64) (scale float64, moved bool) {
	maxAbs := 0.0
	for _, v := range src {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	scale = maxAbs / 127
	var diff int8
	if scale == 0 {
		for i := range dst {
			diff |= dst[i]
			dst[i] = 0
		}
		return 0, diff != 0
	}
	for i, v := range src {
		q := math.Round(v / scale)
		if q > 127 {
			q = 127
		}
		if q < -127 {
			q = -127
		}
		diff |= dst[i] ^ int8(q)
		dst[i] = int8(q)
	}
	return scale, diff != 0
}

// QuantizeWeights captures the network's parameters in int8 form without
// modifying the network.
func QuantizeWeights(net *Network) *QuantizedWeights {
	qw := &QuantizedWeights{}
	qw.Requantize(net)
	return qw
}

// Requantize recaptures net's parameters into qw, reusing the int8 buffers
// of a previous capture wherever their capacity suffices — the same values
// QuantizeWeights(net) would hold, without its allocations when an edge
// re-installs an architecture it already holds. changed reports whether the
// capture differs from what qw held before the call: in the number of
// tensors, a tensor's length, a scale's bits or a single int8. qw records no
// shapes, so the answer is about one architecture; when it is false, every
// engine compiled from (net after ApplyTo, qw) is still the engine a fresh
// compile would return.
func (qw *QuantizedWeights) Requantize(net *Network) (changed bool) {
	i := 0
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			if i == len(qw.Tensors) {
				qw.Tensors = append(qw.Tensors, QuantizedTensor{})
				changed = true
			}
			qt := &qw.Tensors[i]
			if len(qt.Data) != p.Len() {
				qt.Data = resized(qt.Data, p.Len())
				changed = true
			}
			scale, moved := quantizeSlice(qt.Data, p.Data)
			if moved || math.Float64bits(scale) != math.Float64bits(qt.Scale) {
				changed = true
			}
			qt.Scale = scale
			i++
		}
	}
	if i != len(qw.Tensors) {
		qw.Tensors = qw.Tensors[:i]
		changed = true
	}
	return changed
}

// ApplyTo writes the dequantized values float64(q)*Scale into an identically
// shaped network's parameters: on the float weights these were captured from,
// each value becomes float64(int64(math.Round(v/Scale)))*Scale — +0, never
// -0, for a small negative weight — and zero-scale tensors are skipped,
// leaving the target's values (TestQuantizeWeightsRoundTripsOracle).
func (qw *QuantizedWeights) ApplyTo(net *Network) error {
	i := 0
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			if i >= len(qw.Tensors) {
				return fmt.Errorf("nn: quantized weights have %d tensors, network %q wants more", len(qw.Tensors), net.Name)
			}
			qt := qw.Tensors[i]
			if len(qt.Data) != p.Len() {
				return fmt.Errorf("nn: quantized tensor %d has %d values, network %q expects %d", i, len(qt.Data), net.Name, p.Len())
			}
			if qt.Scale != 0 {
				for j, q := range qt.Data {
					p.Data[j] = float64(q) * qt.Scale
				}
			}
			i++
		}
	}
	if i != len(qw.Tensors) {
		return fmt.Errorf("nn: quantized weights have %d tensors, network %q has %d", len(qw.Tensors), net.Name, i)
	}
	return nil
}

// WireSize returns the size these tensors occupy as an int8 checkpoint — the
// model size W_n the zoo reports for a "-q8" arm: a 12-byte header, then per
// tensor a float32 scale, a uint32 length and one byte per value.
func (qw *QuantizedWeights) WireSize() int64 {
	size := int64(12) // magic + version + count
	for _, t := range qw.Tensors {
		size += 4 + 4 + int64(len(t.Data)) // scale + len + int8 data
	}
	return size
}

// resized returns s at length n, reusing its storage when the capacity
// suffices. Contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
