package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The fused Conv2D → ReLU → MaxPool2D stage of Network.ForwardBatch against
// the three layers it replaces: the trainer's layer-by-layer walk over the
// served zoo, and the per-sample reference Forwards over fuzzed geometry and
// IEEE corner values.

// zooBuilders are the served zoo's constructors (internal/models'
// familyMembers) over an input shape and ten classes: the six MNIST-family
// members, then both MobileCNN sizes of the CIFAR family.
var zooBuilders = []struct {
	name  string
	build func(in []int, rng *rand.Rand) *Network
}{
	{"cnn-s", func(in []int, r *rand.Rand) *Network { return BuildCNN("cnn-s", in, 8, 16, 32, 10, r) }},
	{"cnn-l", func(in []int, r *rand.Rand) *Network { return BuildCNN("cnn-l", in, 16, 32, 64, 10, r) }},
	{"lenet-s", func(in []int, r *rand.Rand) *Network { return BuildLeNet5("lenet-s", in, 1, 10, r) }},
	{"lenet-l", func(in []int, r *rand.Rand) *Network { return BuildLeNet5("lenet-l", in, 2, 10, r) }},
	{"mlp-s", func(in []int, r *rand.Rand) *Network { return BuildMLP("mlp-s", in, 64, 32, 10, r) }},
	{"mlp-l", func(in []int, r *rand.Rand) *Network { return BuildMLP("mlp-l", in, 256, 128, 10, r) }},
	{"mobile-s", func(in []int, r *rand.Rand) *Network { return BuildMobileCNN("mobile-s", in, 4, 8, 10, r) }},
	{"mobile-l", func(in []int, r *rand.Rand) *Network { return BuildMobileCNN("mobile-l", in, 16, 32, 10, r) }},
}

// layerWalk is the trainer's forward pass (TrainShuffled): every layer's
// ForwardBatch in turn, each boundary's activation materialized.
func layerWalk(net *Network, in *Tensor, a *Arena) *Tensor {
	for _, l := range net.Layers {
		in = l.ForwardBatch(in, a)
	}
	return in
}

// TestFusedForwardMatchesLayerWalk holds Network.ForwardBatch, which runs
// every Conv2D → ReLU → MaxPool2D as one stage, to the layer walk bit for
// bit on every zoo arm and both input shapes, at chunk sizes 1, 4 and 32 and
// through a Scorer over 33 and 100 samples (one lane, or as many as
// GOMAXPROCS and the chunk count allow — CI runs it at -cpu 1,2,4). The CNN
// and LeNet arms fuse both convolutions, MobileCNN its first two (its last
// pointwise conv → ReLU has no pool, so it runs the conv and rectifies its
// output in place, as every Dense → ReLU stage does), the MLPs nothing, and a
// conv → pool with no ReLU between them nothing either.
func TestFusedForwardMatchesLayerWalk(t *testing.T) {
	for _, shape := range [][]int{{1, 28, 28}, {3, 32, 32}} {
		sampleLen := shape[0] * shape[1] * shape[2]
		rng := rand.New(rand.NewSource(2028))
		pool := make([]Sample, 100)
		for i := range pool {
			pool[i] = Sample{X: randTensor(rng, shape...), Label: rng.Intn(10)}
		}
		nets := []*Network{convPoolNet(shape, rand.New(rand.NewSource(7)))}
		for _, zb := range zooBuilders {
			nets = append(nets, zb.build(shape, rand.New(rand.NewSource(7))))
		}
		for _, net := range nets {
			fused := 0
			for _, st := range net.stages {
				if st.relu && st.pool {
					fused++
				}
			}
			want := 2
			if net.Name[:3] == "mlp" || net.Name == "conv-pool" {
				want = 0
			}
			if fused != want {
				t.Fatalf("%s: %d fused stages, want %d", net.Name, fused, want)
			}
			for _, chunk := range []int{1, 4, 32} {
				fa, wa := NewArena(), NewArena()
				in := fa.Tensor(append([]int{chunk}, shape...)...)
				for j := 0; j < chunk; j++ {
					copy(in.Data[j*sampleLen:(j+1)*sampleLen], pool[j].X.Data)
				}
				bitsEqual(t, net.Name+" fused vs walk", net.ForwardBatch(in, fa).Data, layerWalk(net, in, wa).Data)
			}
			for _, m := range []int{33, 100} {
				idx := make([]int, m)
				for i := range idx {
					idx[i] = (i * 7) % len(pool)
				}
				var fs, ws Scorer
				fl, fh := fs.Score(net.ForwardBatch, pool, idx)
				wl, wh := ws.Score(func(in *Tensor, a *Arena) *Tensor { return layerWalk(net, in, a) }, pool, idx)
				if math.Float64bits(fl) != math.Float64bits(wl) || fh != wh {
					t.Fatalf("%s %v M=%d: fused scorer (%v, %d hits), walk (%v, %d hits)", net.Name, shape, m, fl, fh, wl, wh)
				}
				bitsEqual(t, net.Name+" scorer losses", fs.Loss, ws.Loss)
			}
		}
	}
}

// convPoolValue maps one fuzz byte to a weight or input: a third of the byte
// range is IEEE corners (±0, NaN, ±Inf, the extremes of the range), the rest
// eighths in [-15.875, 15.875] — exact, so sums tie and cancel often.
func convPoolValue(b byte) float64 {
	corners := [...]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308, 5e-324}
	if b >= 0xaa {
		return corners[int(b)%len(corners)]
	}
	return float64(int(b)-0x55) / 8
}

// FuzzConvReLUPool checks the fused stage — Conv2D.forwardDirect with pool,
// on every dispatch floor the host has — against Conv2D.Forward →
// ReLU.Forward → MaxPool2D.Forward per sample, bit for bit, over inC 1–4,
// outC 1–9 (below, at and across the tile's four-channel groups), k ∈ {1, 3,
// 5} and h, w from k to k+14: odd conv outputs, pooled rows narrower than a
// segment (2·pw < 4) and every last-segment overlap. Weights, biases and
// inputs cycle through the fuzzed bytes, corner values included. A ReLU
// leaves no NaN and no -0 to pool, so the comparison is exact.
func FuzzConvReLUPool(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(1), uint8(14), uint8(14), uint8(1), []byte{0x10, 0x90, 0xab, 0x60})
	f.Add(uint8(2), uint8(5), uint8(2), uint8(4), uint8(9), uint8(0), []byte{0xac, 0xad, 0x70, 0x20, 0xae})
	f.Add(uint8(1), uint8(8), uint8(0), uint8(3), uint8(2), uint8(2), []byte{0xaa, 0x56, 0x54})
	f.Add(uint8(3), uint8(2), uint8(1), uint8(5), uint8(11), uint8(1), []byte("relu-pool"))
	f.Fuzz(func(t *testing.T, inC, outC, kSel, h, w, batch uint8, raw []byte) {
		if len(raw) == 0 {
			raw = []byte{0x5d}
		}
		k := []int{1, 3, 5}[int(kSel)%3]
		c, oc := 1+int(inC)%4, 1+int(outC)%9
		hh, ww := k+int(h)%15, k+int(w)%15
		if hh-k+1 < 2 || ww-k+1 < 2 {
			return // no pool window: the pooled plane is empty
		}
		n := 1 + int(batch)%3
		next := 0
		fill := func(dst []float64) {
			for i := range dst {
				dst[i] = convPoolValue(raw[next%len(raw)] + byte(next/len(raw)))
				next++
			}
		}
		conv := NewConv2D(c, oc, k, rand.New(rand.NewSource(1)))
		fill(conv.w.Data)
		fill(conv.b.Data)
		in := NewTensor(n, c, hh, ww)
		fill(in.Data)
		inLen := c * hh * ww
		var want []float64
		for s := 0; s < n; s++ {
			smp := &Tensor{Shape: []int{c, hh, ww}, Data: in.Data[s*inLen : (s+1)*inLen]}
			want = append(want, NewMaxPool2D().Forward(NewReLU().Forward(conv.Forward(smp))).Data...)
		}
		eachDispatchFloor(func(floor string) {
			got := conv.forwardDirect(in, NewArena(), true)
			if got.Len() != len(want) {
				t.Fatalf("%s: %d outputs, want %d", floor, got.Len(), len(want))
			}
			for i, v := range want {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("%s: inC=%d outC=%d k=%d in=%dx%d batch=%d: output %d = %x, layers give %x",
						floor, c, oc, k, hh, ww, n, i, math.Float64bits(got.Data[i]), math.Float64bits(v))
				}
			}
		})
	})
}

// FuzzPoolRoute holds the pool backward to the poolScatter oracle, per sample
// and at every dispatch floor, bit for bit (any NaN matching any NaN): poolRoute
// and MaxPool2D.BackwardBatch on raw input, and the trainer's Conv2D → ReLU →
// MaxPool2D backward — the pooled gradient masked by reluBwdSIMD against the
// pooled plane, then poolRoute over the rectified plane — against poolScatter
// over the rectified plane followed by ReLU's backward against the conv
// output. Channels 1–4, h and w 2–13 (odd ones leave a row or column no
// window reads), batch 1–3. Inputs and gradients cycle through the fuzzed
// bytes: mostly eighths in [-0.5, 0.5], so windows tie and all-zero windows
// are common, the rest IEEE corners (±0, NaN, ±Inf, extremes); an odd nan
// also puts a NaN in every window, at a position that moves window by window.
// The arena hands out NaN-filled buffers, so an element left unwritten fails.
func FuzzPoolRoute(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(4), uint8(0), uint8(0), []byte{0x40, 0x41, 0x44, 0x40})
	f.Add(uint8(1), uint8(5), uint8(7), uint8(1), uint8(1), []byte{0xaa, 0xab, 0x03, 0x12, 0x40})
	f.Add(uint8(2), uint8(11), uint8(2), uint8(2), uint8(3), []byte("pool-route"))
	f.Add(uint8(3), uint8(3), uint8(9), uint8(0), uint8(7), []byte{0xac, 0xad, 0xae, 0xaf, 0x00})
	f.Fuzz(func(t *testing.T, ch, h, w, batch, nan uint8, raw []byte) {
		if len(raw) == 0 {
			raw = []byte{0x5d}
		}
		c, hh, ww, n := 1+int(ch)%4, 2+int(h)%12, 2+int(w)%12, 1+int(batch)%3
		oh, ow := hh/2, ww/2
		next := 0
		fill := func(dst []float64) {
			for i := range dst {
				b := raw[next%len(raw)] + byte(next/len(raw))
				next++
				dst[i] = float64(int(b%9)-4) / 8
				if b >= 0xaa {
					dst[i] = convPoolValue(b)
				}
			}
		}
		in := NewTensor(n, c, hh, ww)
		fill(in.Data)
		if nan%2 == 1 {
			for win := 0; win < n*c*oh*ow; win++ {
				p, y, x, d := win/(oh*ow), win/ow%oh, win%ow, (win+int(nan)/2)%4
				in.Data[(p*hh+2*y+d/2)*ww+2*x+d%2] = math.NaN()
			}
		}
		gradOut := NewTensor(n, c, oh, ow)
		fill(gradOut.Data)
		rect := NewTensor(in.Shape...)
		reluFwdGo(rect.Data, in.Data)

		inLen, outLen := c*hh*ww, c*oh*ow
		wantRaw, wantStage := make([]float64, n*inLen), make([]float64, n*inLen)
		for s := 0; s < n; s++ {
			sIn, g := in.Data[s*inLen:(s+1)*inLen], gradOut.Data[s*outLen:(s+1)*outLen]
			poolScatter(wantRaw[s*inLen:(s+1)*inLen], sIn, g, c, hh, ww)
			gr := make([]float64, inLen)
			poolScatter(gr, rect.Data[s*inLen:(s+1)*inLen], g, c, hh, ww)
			reluBwdGo(wantStage[s*inLen:(s+1)*inLen], gr, sIn)
		}
		same := func(floor, what string, got, want []float64) {
			t.Helper()
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s: ch=%d in=%dx%d batch=%d: %s gradient %d = %x, poolScatter gives %x",
						floor, c, hh, ww, n, what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		a, pool := NewArena(), NewMaxPool2D()
		eachDispatchFloor(func(floor string) {
			for i := 0; i < 7; i++ { // every buffer starts as NaN, so a skipped store shows
				buf := a.Floats(n * inLen)
				for j := range buf {
					buf[j] = math.NaN()
				}
			}
			a.Reset()
			same(floor, "poolRoute", poolRoute(in, pool.ForwardBatch(in, a), gradOut, a).Data, wantRaw)
			same(floor, "BackwardBatch", pool.BackwardBatch(in, gradOut, nil, true, a).Data, wantRaw)
			pooled, g := pool.ForwardBatch(rect, a), a.Tensor(gradOut.Shape...)
			copy(g.Data, gradOut.Data)
			reluBwdSIMD(g.Data, g.Data, pooled.Data)
			same(floor, "stage", poolRoute(rect, pooled, g, a).Data, wantStage)
		})
	})
}
