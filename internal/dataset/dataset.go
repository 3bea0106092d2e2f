// Package dataset provides the synthetic stand-ins for the paper's MNIST and
// CIFAR-10 inference data.
//
// Real MNIST/CIFAR-10 files are unavailable offline, so each dataset is an
// explicit, fixed generative distribution D: every class has a smooth random
// template image, and a sample is its class template plus a random spatial
// shift and pixel noise. This preserves exactly the property the paper's
// algorithms rely on — data samples (a, b) are IID draws from an unknown,
// time-invariant distribution — while letting the nn substrate train models
// of genuinely different quality on it.
//
// The "CIFAR-like" variant uses three channels, higher noise, and partially
// blended templates, making it markedly harder than the "MNIST-like" variant,
// mirroring the accuracy gap between the two real datasets.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/carbonedge/carbonedge/internal/nn"
)

// Spec describes a synthetic dataset family.
type Spec struct {
	Name     string
	Channels int
	Height   int
	Width    int
	Classes  int
	// Noise is the per-pixel Gaussian noise sigma.
	Noise float64
	// Blend in [0, 1) mixes each class template with its neighbor class,
	// raising the Bayes error (used to make CIFAR-like harder).
	Blend float64
	// MaxShift is the maximum absolute spatial shift in pixels.
	MaxShift int
	// Blobs is the number of Gaussian blobs per class template.
	Blobs int
}

// The two dataset families evaluated in the paper.
var (
	// MNISTLike mirrors MNIST: 1x28x28, 10 classes, relatively easy. The
	// spatial shift of up to 4 pixels is what separates the architectures:
	// convolutional models tolerate it, matched-filter MLPs degrade —
	// reproducing the model-quality spread of the paper's real MNIST zoo.
	MNISTLike = Spec{
		Name:     "mnist-like",
		Channels: 1, Height: 28, Width: 28, Classes: 10,
		Noise: 0.5, Blend: 0.0, MaxShift: 4, Blobs: 4,
	}
	// CIFARLike mirrors CIFAR-10: 3x32x32, 10 classes, much harder: more
	// noise, bigger shifts, and blended class templates raise the Bayes
	// error, yielding the wide accuracy spread of real CIFAR-10 models.
	CIFARLike = Spec{
		Name:     "cifar-like",
		Channels: 3, Height: 32, Width: 32, Classes: 10,
		Noise: 0.75, Blend: 0.5, MaxShift: 5, Blobs: 5,
	}
)

// Distribution is the paper's shared generative distribution D: fixed class
// templates from which every edge draws its own independent IID stream. The
// cloud trains models on samples of D; edges sample D with their own RNGs —
// sharing the Distribution value is what makes their streams identically
// distributed.
type Distribution struct {
	Spec      Spec
	templates []*nn.Tensor
}

// NewDistribution draws the class templates from rng, fixing D.
func NewDistribution(spec Spec, rng *rand.Rand) (*Distribution, error) {
	if spec.Classes < 2 {
		return nil, fmt.Errorf("dataset: need at least 2 classes, got %d", spec.Classes)
	}
	d := &Distribution{Spec: spec}
	d.templates = make([]*nn.Tensor, spec.Classes)
	for c := 0; c < spec.Classes; c++ {
		d.templates[c] = makeTemplate(spec, rng)
	}
	if spec.Blend > 0 {
		blended := make([]*nn.Tensor, spec.Classes)
		for c := 0; c < spec.Classes; c++ {
			next := d.templates[(c+1)%spec.Classes]
			t := d.templates[c].Clone()
			for i := range t.Data {
				t.Data[i] = (1-spec.Blend)*t.Data[i] + spec.Blend*next.Data[i]
			}
			blended[c] = t
		}
		d.templates = blended
	}
	return d, nil
}

// Pool draws n IID samples.
func (d *Distribution) Pool(n int, rng *rand.Rand) []nn.Sample {
	out := make([]nn.Sample, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Sample(rng))
	}
	return out
}

// Dataset holds generated train and test pools.
type Dataset struct {
	Spec  Spec
	Train []nn.Sample
	Test  []nn.Sample
}

// GenerateFrom builds train/test pools over an existing distribution, so
// several parties (the cloud's trainer, each edge) can share D while
// sampling independently. Everything is deterministic given the RNG.
func GenerateFrom(dist *Distribution, trainN, testN int, rng *rand.Rand) (*Dataset, error) {
	if trainN <= 0 || testN <= 0 {
		return nil, fmt.Errorf("dataset: pool sizes must be positive, got train=%d test=%d", trainN, testN)
	}
	d := &Dataset{Spec: dist.Spec}
	d.Train = dist.Pool(trainN, rng)
	d.Test = dist.Pool(testN, rng)
	return d, nil
}

// Sample draws one labeled example from the distribution.
func (d *Distribution) Sample(rng *rand.Rand) nn.Sample {
	spec := d.Spec
	label := rng.Intn(spec.Classes)
	base := d.templates[label]
	x := nn.NewTensor(spec.Channels, spec.Height, spec.Width)
	dy := rng.Intn(2*spec.MaxShift+1) - spec.MaxShift
	dx := rng.Intn(2*spec.MaxShift+1) - spec.MaxShift
	for c := 0; c < spec.Channels; c++ {
		for y := 0; y < spec.Height; y++ {
			sy := y + dy
			for xx := 0; xx < spec.Width; xx++ {
				sx := xx + dx
				v := 0.0
				if sy >= 0 && sy < spec.Height && sx >= 0 && sx < spec.Width {
					v = base.At3(c, sy, sx)
				}
				x.Set3(c, y, xx, v+rng.NormFloat64()*spec.Noise)
			}
		}
	}
	return nn.Sample{X: x, Label: label}
}

// makeTemplate builds one smooth class template as a sum of Gaussian blobs
// with random centers, widths, and signs, normalized to unit peak amplitude.
func makeTemplate(spec Spec, rng *rand.Rand) *nn.Tensor {
	t := nn.NewTensor(spec.Channels, spec.Height, spec.Width)
	type blob struct {
		cx, cy, sigma, amp float64
		channel            int
	}
	blobs := make([]blob, 0, spec.Blobs)
	for b := 0; b < spec.Blobs; b++ {
		blobs = append(blobs, blob{
			cx:      rng.Float64() * float64(spec.Width),
			cy:      rng.Float64() * float64(spec.Height),
			sigma:   2 + rng.Float64()*float64(spec.Height)/5,
			amp:     1 + rng.Float64(),
			channel: rng.Intn(spec.Channels),
		})
	}
	maxAbs := 0.0
	for _, bl := range blobs {
		for y := 0; y < spec.Height; y++ {
			for x := 0; x < spec.Width; x++ {
				dy := float64(y) - bl.cy
				dx := float64(x) - bl.cx
				v := bl.amp * math.Exp(-(dx*dx+dy*dy)/(2*bl.sigma*bl.sigma))
				nv := t.At3(bl.channel, y, x) + v
				t.Set3(bl.channel, y, x, nv)
				if a := math.Abs(nv); a > maxAbs {
					maxAbs = a
				}
			}
		}
	}
	if maxAbs > 0 {
		for i := range t.Data {
			t.Data[i] /= maxAbs
		}
	}
	return t
}
