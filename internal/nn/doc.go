// Package nn is a small from-scratch neural-network substrate (pure Go,
// stdlib only) used to stand in for the paper's MNIST/CIFAR-10 model zoo.
//
// It provides dense and 2-D convolutional layers, max pooling, ReLU,
// softmax/cross-entropy and squared-loss heads, and a minibatch SGD trainer.
// Networks report their parameter counts and per-inference FLOPs, from which
// the model-zoo package derives the paper's model size W_n, per-sample
// inference energy, and computation latency.
//
// Every layer has one reference implementation (per-sample Forward/Backward)
// and one shipped implementation (the batched ForwardBatch/ForwardBatchTrain/
// BackwardBatch: Dense on panel-packed GEMM kernels, Conv2D on a direct
// kernel that reads the input planes in place, the rest on SIMD row kernels);
// the equivalence tests pin the two bit for bit, and trainNaive/TrainShuffled are the
// same pair one level up.
//
// Determinism comes first: every kernel preserves the reference float
// summation order, and all weight initialization flows from an explicit RNG
// so that a simulation seed fully reproduces the trained models.
package nn
