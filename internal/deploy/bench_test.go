package deploy

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"github.com/carbonedge/carbonedge/internal/dataset"
	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/nn"
	"github.com/carbonedge/carbonedge/internal/numeric"
)

// benchBuild is the architecture constructor the bench runtimes install into.
func benchBuild(modelID int) (*nn.Network, error) {
	return models.NewFamilyNetwork(dataset.MNISTLike, modelID, numeric.SplitRNG(9, "bench-arch"))
}

// benchCheckpoint serializes model modelID at the initialisation the named
// stream draws: distinct streams ship distinct weights for one architecture.
func benchCheckpoint(b testing.TB, modelID int, stream string) []byte {
	b.Helper()
	net, err := models.NewFamilyNetwork(dataset.MNISTLike, modelID, numeric.SplitRNG(9, stream))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nn.WriteWeights(&buf, net); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// benchRuntime builds an NNRuntime with one loaded model, ready to serve
// slots. int8 opts the runtime into the true-INT8 engine before any load.
func benchRuntime(b testing.TB, int8Mode bool) *NNRuntime {
	b.Helper()
	return benchRuntimeSized(b, int8Mode, 64, 20)
}

// benchRuntimeSized is benchRuntime over a pool of the given size, serving
// perSlot samples a slot.
func benchRuntimeSized(b testing.TB, int8Mode bool, pool, perSlot int) *NNRuntime {
	b.Helper()
	rng := numeric.SplitRNG(7, "bench-runtime")
	dist, err := dataset.NewDistribution(dataset.MNISTLike, rng)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := NewNNRuntime(
		benchBuild,
		dist.Pool(pool, rng),
		func(int) int { return perSlot },
		func(int) float64 { return 0.03 },
		rng,
	)
	if err != nil {
		b.Fatal(err)
	}
	rt.Int8 = int8Mode
	metas := make([]ModelMeta, models.FamilySize())
	for i := range metas {
		metas[i] = ModelMeta{Name: "bench", PhiKWh: 0.001}
	}
	if err := rt.Welcome(metas); err != nil {
		b.Fatal(err)
	}
	if err := rt.LoadModel(0, benchCheckpoint(b, 0, "bench-arch")); err != nil {
		b.Fatal(err)
	}
	return rt
}

// BenchmarkNNRuntimeLoadModel prices one checkpoint install per engine and
// arm on a warm arena: "first" evicts the model before every install, so the
// architecture, int8 buffers and engine are built again; "repeat" installs
// over the resident copy, which is what every switch back to a model costs.
func BenchmarkNNRuntimeLoadModel(b *testing.B) {
	for _, mode := range []struct {
		name string
		int8 bool
	}{{"float", false}, {"int8", true}} {
		for arm := 0; arm < models.FamilySize(); arm++ {
			ckpt := benchCheckpoint(b, arm, "bench-ckpt")
			for _, install := range []string{"first", "repeat"} {
				b.Run(fmt.Sprintf("%s/%s/arm%d", mode.name, install, arm), func(b *testing.B) {
					rt := benchRuntime(b, mode.int8)
					if err := rt.LoadModel(arm, ckpt); err != nil { // warm the arena
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if install == "first" {
							delete(rt.loaded, arm)
						}
						if err := rt.LoadModel(arm, ckpt); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkNNRuntimeSlot prices one served slot per engine and arm at the
// slot-cost benchmark's shape — a 300-sample pool, 100 samples a slot — and
// reports it per sample: the float-against-INT8 table by arm that
// nn.q8_speedup_x folds into one ratio. (TestNNRuntimeSlotZeroAllocs holds
// the 0 allocs/op this prints.)
func BenchmarkNNRuntimeSlot(b *testing.B) {
	const pool, perSlot = 300, 100
	for _, mode := range []struct {
		name string
		int8 bool
	}{{"float", false}, {"int8", true}} {
		for arm := 0; arm < models.FamilySize(); arm++ {
			ckpt := benchCheckpoint(b, arm, "bench-ckpt")
			b.Run(fmt.Sprintf("%s/arm%d", mode.name, arm), func(b *testing.B) {
				rt := benchRuntimeSized(b, mode.int8, pool, perSlot)
				if err := rt.LoadModel(arm, ckpt); err != nil {
					b.Fatal(err)
				}
				if _, err := rt.RunSlot(0, arm); err != nil { // warm the arena
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := rt.RunSlot(i+1, arm); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*perSlot), "us/sample")
			})
		}
	}
}

// TestNNRuntimeSlotZeroAllocs enforces the 0 allocs/op gate in the regular
// test run (benchmarks only execute under -bench), for both engines, on a
// four-chunk slot: one lane at -cpu 1, two at -cpu 2, four at -cpu 4. It
// counts mallocs itself because testing.AllocsPerRun pins GOMAXPROCS to 1,
// which would measure the one-lane path whatever the flag says. Which lane
// claims which chunk is the scheduler's business, so a lane may meet its first
// full chunk — and grow its arena — some slots in: the steady state is the
// best of a few batches, which an allocation made per slot never brings to 0.
func TestNNRuntimeSlotZeroAllocs(t *testing.T) {
	const batches, runs = 5, 20
	for _, mode := range []struct {
		name string
		int8 bool
	}{{"float", false}, {"int8", true}} {
		t.Run(mode.name, func(t *testing.T) {
			rt := benchRuntimeSized(t, mode.int8, 300, 100)
			best := ^uint64(0)
			for b := 0; b < batches && best != 0; b++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					if _, err := rt.RunSlot(b*runs+i, 0); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				best = min(best, (after.Mallocs-before.Mallocs)/runs)
			}
			if best != 0 {
				t.Fatalf("steady-state RunSlot allocates %d times per slot at GOMAXPROCS %d, want 0", best, runtime.GOMAXPROCS(0))
			}
		})
	}
}

// perSampleSlot is the one-sample-at-a-time serving loop RunSlot is held to:
// draw, forward a batch of one, add its squared loss (nn holds the row
// helpers to its per-sample loss and argmax).
func perSampleSlot(ref *NNRuntime, arm, m int) SlotReport {
	model, one := ref.loaded[arm], nn.NewArena()
	rep := SlotReport{Samples: m, EnergyKWh: ref.metas[arm].PhiKWh * float64(m), CompSeconds: ref.compSecondsPerSample(arm)}
	forward := model.net.ForwardBatch
	if ref.Int8 {
		forward = model.qn.ForwardBatch
	}
	total := 0.0
	for j := 0; j < m; j++ {
		s := ref.pool[ref.rng.Intn(len(ref.pool))]
		one.Reset()
		out := forward(&nn.Tensor{Shape: append([]int{1}, s.X.Shape...), Data: s.X.Data}, one)
		total += nn.SquaredLossRow(out.Data, s.Label, one.Floats(out.Len()))
		if nn.ArgmaxRow(out.Data) == s.Label {
			rep.Correct++
		}
	}
	if m > 0 {
		rep.AvgLoss = total / float64(m)
	}
	return rep
}

// TestNNRuntimeSlotMatchesPerSampleLoop: whatever the lane count — one, two,
// more lanes than the slot has chunks — RunSlot returns the per-sample loop's
// SlotReport bit for bit and leaves the edge's RNG where that loop leaves it,
// at every chunk-boundary slot size, on an MLP and a convolutional arm, both
// engines (the INT8 cnn-s runs the short-K tile and the GEMM lowering).
func TestNNRuntimeSlotMatchesPerSampleLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sizes := []int{0, 1, 31, 32, 33, 100, 257}
	for _, int8Mode := range []bool{false, true} {
		for _, arm := range []int{4, 0} { // mlp-s, cnn-s
			ckpt := benchCheckpoint(t, arm, "bench-ckpt")
			fresh := func() *NNRuntime {
				rt := benchRuntimeSized(t, int8Mode, 300, 0)
				rt.samplesPerSlot = func(slot int) int { return sizes[slot] }
				if err := rt.LoadModel(arm, ckpt); err != nil {
					t.Fatal(err)
				}
				return rt
			}
			ref := fresh()
			want := make([]SlotReport, len(sizes))
			for slot, m := range sizes {
				want[slot] = perSampleSlot(ref, arm, m)
			}
			wantNext := ref.rng.Int63()
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				rt := fresh()
				for slot := range sizes {
					got, err := rt.RunSlot(slot, arm)
					if err != nil {
						t.Fatal(err)
					}
					if got != want[slot] || math.Float64bits(got.AvgLoss) != math.Float64bits(want[slot].AvgLoss) {
						t.Errorf("int8=%v arm %d GOMAXPROCS %d M=%d: report %+v, per-sample loop %+v", int8Mode, arm, procs, sizes[slot], got, want[slot])
					}
				}
				if next := rt.rng.Int63(); next != wantNext {
					t.Errorf("int8=%v arm %d GOMAXPROCS %d: the edge's RNG is not where the per-sample loop leaves it", int8Mode, arm, procs)
				}
			}
		}
	}
}

// TestNNRuntimeInt8Serving pins the INT8 execution mode's serving contract:
// the sample draw stream is the float runtime's (identical RNG consumption,
// so Samples/Energy/CompSeconds match bit for bit), repeated runs are
// deterministic, and a model installed before the mode was enabled is
// rejected rather than silently served through the float path.
func TestNNRuntimeInt8Serving(t *testing.T) {
	fp := benchRuntime(t, false)
	q := benchRuntime(t, true)
	for slot := 0; slot < 3; slot++ {
		frep, err := fp.RunSlot(slot, 0)
		if err != nil {
			t.Fatal(err)
		}
		qrep, err := q.RunSlot(slot, 0)
		if err != nil {
			t.Fatal(err)
		}
		if qrep.Samples != frep.Samples || qrep.EnergyKWh != frep.EnergyKWh ||
			qrep.CompSeconds != frep.CompSeconds {
			t.Fatalf("slot %d: int8 report metadata %+v diverges from float %+v", slot, qrep, frep)
		}
		if qrep.AvgLoss < 0 || qrep.Correct < 0 || qrep.Correct > qrep.Samples {
			t.Fatalf("slot %d: malformed int8 report %+v", slot, qrep)
		}
	}
	// Determinism: two fresh int8 runtimes replay identical reports.
	q2, q3 := benchRuntime(t, true), benchRuntime(t, true)
	for slot := 0; slot < 3; slot++ {
		a, err := q2.RunSlot(slot, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := q3.RunSlot(slot, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("slot %d: int8 serving nondeterministic: %+v vs %+v", slot, a, b)
		}
	}

	// A float-loaded model must not be served once Int8 is flipped on.
	late := benchRuntime(t, false)
	late.Int8 = true
	if _, err := late.RunSlot(0, 0); err == nil {
		t.Fatal("RunSlot served a float-loaded model in Int8 mode")
	}
}

// BenchmarkWireCodec prices the wire codec on one real frame of each hot
// message type, at the region-fleet workload's 1 000-edge shard size: encode
// is WriteMessage into a discarding writer, decode is a connection's frame
// reader taking the same frame again and again into its recycled targets.
func BenchmarkWireCodec(b *testing.B) {
	hot := hotFrames(1000)
	for _, name := range hotFrameNames {
		msg := hot[name]
		frame := frameOf(b, msg)
		b.Run(name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if err := WriteMessage(io.Discard, msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/decode", func(b *testing.B) {
			src := bytes.NewReader(frame)
			fr := &frameReader{r: src}
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				src.Reset(frame)
				if _, err := fr.next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWireCodecSteadyStateAllocs pins the codec's steady state in the regular
// test run: once a frame buffer and a connection's decode targets have grown
// to the frame, encoding an Assign or a Report and reading one into the reused
// Message allocate nothing. The encoder is measured on a buffer the test
// holds, as WriteMessage holds a pooled one: sync.Pool drops buffers at random
// under the race detector, which is the pool's business, not the codec's.
func TestWireCodecSteadyStateAllocs(t *testing.T) {
	hot := hotFrames(1)
	for _, name := range []string{"Assign", "Report"} {
		msg := hot[name]
		frame := frameOf(t, msg)
		buf := make([]byte, 0, len(frame))
		if allocs := testing.AllocsPerRun(100, func() {
			if out, err := appendFrame(buf[:0], msg); err != nil || !bytes.Equal(out, frame) {
				t.Fatalf("appendFrame: %q, %v", out, err)
			}
		}); allocs != 0 {
			t.Errorf("%s: encoding allocates %v times per frame, want 0", name, allocs)
		}
		src := bytes.NewReader(frame)
		fr := &frameReader{r: src}
		if allocs := testing.AllocsPerRun(100, func() {
			src.Reset(frame)
			if _, err := fr.next(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: reading into the reused Message allocates %v times per frame, want 0", name, allocs)
		}
	}
}
