// Package nn is a small from-scratch neural-network substrate (pure Go,
// stdlib only) used to stand in for the paper's MNIST/CIFAR-10 model zoo.
//
// It provides dense and 2-D convolutional layers, max pooling, ReLU,
// softmax/cross-entropy and squared-loss heads, and a minibatch SGD trainer.
// Networks report their parameter counts and per-inference FLOPs, from which
// the model-zoo package derives the paper's model size W_n, per-sample
// inference energy, and computation latency.
//
// A layer is its parameters and nothing else. No Layer method writes to its
// receiver, so a Network is read-only under inference and one copy serves any
// number of goroutines, each with its own Arena. What a backward pass needs
// it is handed: in, the tensor that layer's forward pass consumed, and the
// gradient accumulators to add into. Both belong to the trainer — TrainShuffled
// keeps one Grads for the run and, for the span of a minibatch, each layer's
// input (arena tensors, valid until the next Reset). An edge that only
// downloads checkpoints and infers allocates neither.
//
// Every layer has one reference implementation (per-sample Forward/Backward)
// and one shipped implementation (the batched ForwardBatch/BackwardBatch:
// Dense on panel-packed GEMM kernels, Conv2D on a direct kernel that reads
// the input planes in place, the rest on SIMD row kernels); the equivalence
// tests pin the two bit for bit, and trainNaive/TrainShuffled are the same
// pair one level up.
//
// Both engines run one stage list, which NewNetwork plans (planStages). The
// INT8 engine (QuantizedNetwork) has the same shape in integers: one scalar
// specification (quantizeActs, qdotRowRef over im2colQ patches, requantize,
// then ReLU and max-pool in the float network's order) that a test-only
// forward pass executes sample by sample, and one shipped path — an op per
// Conv2D or Dense stage, im2colQ into the dual-row GEMM tiers or, for
// convolutions on amd64, a direct tile over the input planes, the stage's
// ReLU folded into the requantize clamp and its max-pool run on the int32
// accumulators before it — held to that specification's bits, which int32
// wraparound sums and a monotone requantization make a matter of construction.
//
// Determinism comes first: every kernel preserves the reference float
// summation order, and all weight initialization flows from an explicit RNG
// so that a simulation seed fully reproduces the trained models.
package nn
