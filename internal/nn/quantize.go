package nn

// Int8 weight quantization: each parameter tensor is held as int8 values
// with one symmetric per-tensor scale (QuantizedWeights, qweights.go),
// quartering the checkpoint size relative to the float32 wire format. This
// backs the paper's future-work direction of quantization-aware energy
// control: smaller checkpoints mean cheaper model downloads (the paper's
// F_{i,n} = vartheta * W_n) at a measurable accuracy cost.

// QuantizeInPlace replaces the network's weights with their int8
// dequantized values, measuring the quality impact of serving the
// quantized model directly. It is QuantizeWeights followed by ApplyTo —
// one shared quantization rule (qweights.go), so the fake-quant oracle and
// the stored int8 representation cannot drift apart.
func QuantizeInPlace(net *Network) {
	if err := QuantizeWeights(net).ApplyTo(net); err != nil {
		//lint:allow panicpolicy unreachable: the weights were captured from net itself, so shapes always align
		panic(err)
	}
}
