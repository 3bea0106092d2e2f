package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The wire format realizes the paper's model-download mechanism: the cloud
// serializes a model's parameters and ships them to an edge. Weights are
// stored as float32 (the precision models are actually distributed at), so
// Network.SizeBytes — the paper's W_n — matches the serialized payload up to
// the small header.
//
// Layout (little endian):
//
//	magic  uint32  'C','E','N','N'
//	count  uint32  number of parameter tensors
//	repeat count times:
//	  len  uint32  number of float32 values
//	  data len * float32
const (
	wireMagic   = 0x4345_4e4e // "CENN"
	maxWireLen  = 1 << 28     // 256M parameters; guards corrupt headers
	maxWireCnt  = 1 << 16
	wireVersion = 1
)

// WriteWeights serializes all parameter tensors of the network.
func WriteWeights(w io.Writer, net *Network) error {
	bw := bufio.NewWriter(w)
	var params []*Tensor
	for _, l := range net.Layers {
		params = append(params, l.Params()...)
	}
	for _, v := range []uint32{wireMagic, wireVersion, uint32(len(params))} {
		if err := writeUint32(bw, v); err != nil {
			return err
		}
	}
	for _, p := range params {
		if err := writeUint32(bw, uint32(p.Len())); err != nil {
			return err
		}
		// Encode straight into the writer's free space, as many values as
		// fit, and let Write flush when it fills.
		for data := p.Data; len(data) > 0; {
			if bw.Available() < 4 {
				if err := bw.Flush(); err != nil {
					return err
				}
			}
			chunk := bw.AvailableBuffer()
			k := min(len(data), bw.Available()/4)
			for _, v := range data[:k] {
				chunk = binary.LittleEndian.AppendUint32(chunk, math.Float32bits(float32(v)))
			}
			if _, err := bw.Write(chunk); err != nil {
				return err
			}
			data = data[k:]
		}
	}
	return bw.Flush()
}

func writeUint32(bw *bufio.Writer, v uint32) error {
	_, err := bw.Write(binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), v))
	return err
}

// readUint32 reads one little-endian word, with binary.Read's errors: io.EOF
// when nothing is left, io.ErrUnexpectedEOF inside the word.
func readUint32(br *bufio.Reader) (uint32, error) {
	b, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	v := binary.LittleEndian.Uint32(b)
	_, _ = br.Discard(4) // cannot fail: the four bytes are buffered
	return v, nil
}

// ReadWeights deserializes parameters into an already-constructed network
// of the identical architecture. It validates the header and every tensor
// length against the receiving network.
func ReadWeights(r io.Reader, net *Network) error {
	br := bufio.NewReader(r)
	magic, err := readUint32(br)
	if err != nil {
		return fmt.Errorf("nn: read magic: %w", err)
	}
	if magic != wireMagic {
		return fmt.Errorf("nn: bad magic 0x%08x", magic)
	}
	version, err := readUint32(br)
	if err != nil {
		return fmt.Errorf("nn: read version: %w", err)
	}
	if version != wireVersion {
		return fmt.Errorf("nn: unsupported version %d", version)
	}
	count, err := readUint32(br)
	if err != nil {
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
		n, err := readUint32(br)
		if err != nil {
			return fmt.Errorf("nn: read tensor %d length: %w", i, err)
		}
		if n > maxWireLen {
			return fmt.Errorf("nn: implausible tensor length %d", n)
		}
		if int(n) != p.Len() {
			return fmt.Errorf("nn: tensor %d has %d values, network expects %d", i, n, p.Len())
		}
		// Decode in place from the reader's buffer, a bufferful at a time.
		// A short Peek still hands over what arrived, so the values before a
		// truncation are validated (and stored) before it is reported, at
		// the index a value-by-value reader would have stopped at.
		for j := 0; j < int(n); {
			b, err := br.Peek(4 * min(int(n)-j, br.Size()/4))
			whole := len(b) / 4
			for k := 0; k < whole; k++ {
				v := math.Float32frombits(binary.LittleEndian.Uint32(b[4*k:]))
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					return fmt.Errorf("nn: non-finite weight in tensor %d", i)
				}
				p.Data[j+k] = float64(v)
			}
			j += whole
			if err != nil {
				if err == io.EOF && len(b)%4 != 0 {
					err = io.ErrUnexpectedEOF
				}
				return fmt.Errorf("nn: read tensor %d value %d: %w", i, j, err)
			}
			_, _ = br.Discard(4 * whole) // cannot fail: the bytes are buffered
		}
	}
	return nil
}

// WireSize returns the exact serialized payload size in bytes for the
// network, which the model zoo uses as the paper's model size W_n.
func WireSize(net *Network) int64 {
	size := int64(12) // magic + version + count
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			size += 4 + 4*int64(p.Len())
		}
	}
	return size
}
