// Package numeric provides the small numerical-optimization substrate the
// rest of the system is built on: scalar root finding (a safeguarded Newton
// iteration), probability-simplex utilities, weighted sampling, deterministic
// RNG splitting, and small scalar helpers.
//
// The paper's Algorithm 1 needs an O(log(1/eps) + N) solver for the Tsallis
// online-mirror-descent normalization constant, and Algorithm 2 needs a small
// convex solver for its proximal one-shot problem; both are served from here
// so that the algorithm packages stay free of numerical plumbing.
package numeric
