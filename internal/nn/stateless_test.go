package nn

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// The two fences around "a layer is its parameters".

// TestLayersHoldOnlyParameters reflects over the five layer types: every
// field is an exported int dimension or a *Tensor that Params() returns, so
// per-call state — a recorded input, a mask, a gradient twin — cannot grow
// back into a layer unnoticed.
func TestLayersHoldOnlyParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, l := range []Layer{NewDense(3, 2, rng), NewConv2D(1, 2, 3, rng), NewMaxPool2D(), NewReLU()} {
		v := reflect.ValueOf(l).Elem()
		params := l.Params()
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			switch {
			case f.Type.Kind() == reflect.Int && f.IsExported():
			case f.Type == reflect.TypeOf((*Tensor)(nil)):
				// Same package, so the unexported field's pointer is readable.
				if p := (*Tensor)(v.Field(i).UnsafePointer()); !slices.Contains(params, p) {
					t.Errorf("%s.%s is a tensor Params() does not return", v.Type(), f.Name)
				}
			default:
				t.Errorf("%s.%s (%s) is neither an exported int dimension nor a parameter tensor", v.Type(), f.Name, f.Type)
			}
		}
	}
}

// TestNetworkSharedAcrossGoroutines: a Network is read-only under both
// forward forms, so one trained network serves many goroutines at once, each
// on its own arena, and every one of them gets the serial pass's bits. Run
// under -race (make race) this is the fence against a layer that records
// anything in its receiver again.
func TestNetworkSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	shape := []int{1, 20, 20}
	net := BuildCNN("shared", shape, 8, 16, 32, 10, rng) // all five layer types
	train := randSamples(rng, 33, shape, 10)
	if _, err := TrainShuffled(net, train, TrainConfig{Epochs: 1, BatchSize: 7, LR: 0.05}, rng.Shuffle); err != nil {
		t.Fatal(err)
	}
	const batch = 5
	in := randTensor(rng, append([]int{batch}, shape...)...)
	sampleLen := in.Len() / batch
	sample := func(s int) *Tensor {
		return &Tensor{Shape: shape, Data: in.Data[s*sampleLen : (s+1)*sampleLen]}
	}
	want := make([]float64, 0, batch*10)
	for s := 0; s < batch; s++ {
		want = append(want, net.Forward(sample(s)).Data...)
	}

	const workers = 8
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			arena := NewArena()
			for round := 0; round < 4; round++ {
				got[g] = got[g][:0]
				if (g+round)%2 == 0 {
					arena.Reset()
					got[g] = append(got[g], net.ForwardBatch(in, arena).Data...)
					continue
				}
				for s := 0; s < batch; s++ {
					got[g] = append(got[g], net.Forward(sample(s)).Data...)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		bitsEqual(t, fmt.Sprintf("goroutine %d", g), got[g], want)
	}
}

// TestQuantizedNetworkSharedAcrossGoroutines is the same fence for the INT8
// engine: a compiled QuantizedNetwork's weights, scales and op table are
// read-only under ForwardBatch — all per-call state is in the caller's arena
// — so the scorer's lanes may share one. Eight goroutines, own arenas, every
// one gets the serial pass's bits; under -race a write to the engine fails it.
func TestQuantizedNetworkSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, net := range buildQuantArchs(rng) { // the conv tile, the GEMM lowering, pools, dense heads
		_, qn := quantizeForTest(t, net, randBatch(rng, 16, net.InShape()))
		in := randBatch(rng, 5, net.InShape())
		want := slices.Clone(qn.ForwardBatch(in, NewArena()).Data)

		const workers = 8
		got := make([][]float64, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				arena := NewArena()
				for round := 0; round < 4; round++ {
					arena.Reset()
					got[g] = append(got[g][:0], qn.ForwardBatch(in, arena).Data...)
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			bitsEqual(t, fmt.Sprintf("%s goroutine %d", net.Name, g), got[g], want)
		}
	}
}
