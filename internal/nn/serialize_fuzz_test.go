package nn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// readWeightsPerValue is ReadWeights as it stood before it decoded in chunks:
// one reflective binary.Read per word. It is the oracle FuzzReadWeights holds
// the chunked reader to, error text included.
func readWeightsPerValue(r io.Reader, net *Network) error {
	br := bufio.NewReader(r)
	var magic, version, count uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("nn: read magic: %w", err)
	}
	if magic != wireMagic {
		return fmt.Errorf("nn: bad magic 0x%08x", magic)
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
	params := allParams(net)
	if int(count) != len(params) {
		return fmt.Errorf("nn: payload has %d tensors, network %q has %d", count, net.Name, len(params))
	}
	for i, p := range params {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return fmt.Errorf("nn: read tensor %d length: %w", i, err)
		}
		if n > maxWireLen {
			return fmt.Errorf("nn: implausible tensor length %d", n)
		}
		if int(n) != p.Len() {
			return fmt.Errorf("nn: tensor %d has %d values, network expects %d", i, n, p.Len())
		}
		for j := 0; j < int(n); j++ {
			var v float32
			if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
				return fmt.Errorf("nn: read tensor %d value %d: %w", i, j, err)
			}
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("nn: non-finite weight in tensor %d", i)
			}
			p.Data[j] = float64(v)
		}
	}
	return nil
}

// fuzzFamilies are the zoo's four architectures at sizes that keep a
// checkpoint to a few kilobytes (the LeNet's dense tensors still span several
// of the reader's buffers).
var fuzzFamilies = []func(rng *rand.Rand) *Network{
	func(rng *rand.Rand) *Network { return BuildCNN("cnn", []int{1, 12, 12}, 2, 4, 8, 10, rng) },
	func(rng *rand.Rand) *Network { return BuildLeNet5("lenet", []int{1, 16, 16}, 1, 10, rng) },
	func(rng *rand.Rand) *Network { return BuildMLP("mlp", []int{1, 8, 8}, 24, 8, 10, rng) },
	func(rng *rand.Rand) *Network { return BuildMobileCNN("mobile", []int{3, 8, 8}, 4, 6, 10, rng) },
}

func FuzzReadWeights(f *testing.F) {
	for family, build := range fuzzFamilies {
		var good bytes.Buffer
		if err := WriteWeights(&good, build(rand.New(rand.NewSource(int64(family))))); err != nil {
			f.Fatal(err)
		}
		payload := good.Bytes()
		mutated := func(at int, b ...byte) []byte {
			out := append([]byte{}, payload...)
			copy(out[at:], b)
			return out
		}
		f.Add(uint8(family), payload)
		f.Add(uint8(family+1), payload) // another architecture's checkpoint
		for _, cut := range []int{0, 3, 4, 11, 12, 14, 16, 19, len(payload) / 2, len(payload) - 4, len(payload) - 1} {
			f.Add(uint8(family), payload[:cut])
		}
		f.Add(uint8(family), mutated(0, 0xff))                                 // bad magic
		f.Add(uint8(family), mutated(4, 0xff))                                 // bad version
		f.Add(uint8(family), mutated(8, 0xff, 0xff, 0xff, 0xff))               // huge count
		f.Add(uint8(family), mutated(12, 0xff, 0xff, 0xff, 0x0f))              // 2^28-1 values claimed
		f.Add(uint8(family), mutated(12, 0xff, 0xff, 0xff, 0xff))              // implausible length
		f.Add(uint8(family), mutated(16+4*5, 0x00, 0x00, 0xc0, 0x7f))          // NaN
		f.Add(uint8(family), mutated(len(payload)-4, 0x00, 0x00, 0x80, 0xff))  // -Inf in the last value
		f.Add(uint8(family), append(append([]byte{}, payload...), 1, 2, 3, 4)) // trailing bytes
	}

	f.Fuzz(func(t *testing.T, family uint8, payload []byte) {
		build := fuzzFamilies[int(family)%len(fuzzFamilies)]
		got, want := build(rand.New(rand.NewSource(1))), build(rand.New(rand.NewSource(1)))

		// A hostile header must not size an allocation: everything ReadWeights
		// creates is its 4 KiB reader, the parameter list and an error.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ReadWeights(bytes.NewReader(payload), got)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
			t.Errorf("ReadWeights allocated %d bytes on a %d-byte payload", grew, len(payload))
		}

		wantErr := readWeightsPerValue(bytes.NewReader(payload), want)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ReadWeights: %v; value-by-value reader: %v", err, wantErr)
		}
		// Equal weights whether accepted or not: a rejected checkpoint leaves
		// the same prefix installed as the value-by-value reader would.
		gp, wp := allParams(got), allParams(want)
		for i := range gp {
			for j := range gp[i].Data {
				if math.Float64bits(gp[i].Data[j]) != math.Float64bits(wp[i].Data[j]) {
					t.Fatalf("tensor %d value %d: %v, value-by-value reader %v (err %v)",
						i, j, gp[i].Data[j], wp[i].Data[j], err)
				}
			}
		}
	})
}
