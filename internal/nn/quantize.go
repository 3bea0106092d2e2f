package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Int8 weight quantization: each parameter tensor is stored as int8 values
// with one float32 scale (symmetric, per-tensor), quartering the checkpoint
// size relative to the float32 wire format. This backs the paper's
// future-work direction of quantization-aware energy control: smaller
// checkpoints mean cheaper model downloads (the paper's F_{i,n} = vartheta
// * W_n) at a measurable accuracy cost.
//
// Layout (little endian):
//
//	magic   uint32 'C','E','Q','8'
//	version uint32
//	count   uint32 number of tensors
//	repeat count times:
//	  scale float32
//	  len   uint32
//	  data  len * int8
const quantMagic = 0x4345_5138 // "CEQ8"

// WriteQuantized serializes the network's parameters with symmetric int8
// quantization.
func WriteQuantized(w io.Writer, net *Network) error {
	bw := bufio.NewWriter(w)
	var params []*Tensor
	for _, l := range net.Layers {
		params = append(params, l.Params()...)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(quantMagic)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(wireVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		maxAbs := 0.0
		for _, v := range p.Data {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		if scale == 0 {
			scale = 1
		}
		if err := binary.Write(bw, binary.LittleEndian, float32(scale)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(p.Len())); err != nil {
			return err
		}
		for _, v := range p.Data {
			q := math.Round(v / scale)
			if q > 127 {
				q = 127
			}
			if q < -127 {
				q = -127
			}
			if err := bw.WriteByte(byte(int8(q))); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadQuantized loads a quantized checkpoint into an identically shaped
// network, dequantizing to float64.
func ReadQuantized(r io.Reader, net *Network) error {
	br := bufio.NewReader(r)
	var magic, version, count uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("nn: read magic: %w", err)
	}
	if magic != quantMagic {
		return fmt.Errorf("nn: bad quantized magic 0x%08x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return fmt.Errorf("nn: read version: %w", err)
	}
	if version != wireVersion {
		return fmt.Errorf("nn: unsupported version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: read count: %w", err)
	}
	if count > maxWireCnt {
		return fmt.Errorf("nn: implausible tensor count %d", count)
	}
	var params []*Tensor
	for _, l := range net.Layers {
		params = append(params, l.Params()...)
	}
	if int(count) != len(params) {
		return fmt.Errorf("nn: payload has %d tensors, network %q has %d", count, net.Name, len(params))
	}
	for i, p := range params {
		var scale float32
		if err := binary.Read(br, binary.LittleEndian, &scale); err != nil {
			return fmt.Errorf("nn: read tensor %d scale: %w", i, err)
		}
		if scale <= 0 || math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) {
			return fmt.Errorf("nn: invalid scale %v in tensor %d", scale, i)
		}
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return fmt.Errorf("nn: read tensor %d length: %w", i, err)
		}
		if int(n) != p.Len() {
			return fmt.Errorf("nn: tensor %d has %d values, network expects %d", i, n, p.Len())
		}
		for j := 0; j < int(n); j++ {
			b, err := br.ReadByte()
			if err != nil {
				return fmt.Errorf("nn: read tensor %d value %d: %w", i, j, err)
			}
			p.Data[j] = float64(int8(b)) * float64(scale)
		}
	}
	return nil
}

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
