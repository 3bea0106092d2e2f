# Developer entry points for the carbonedge repo.
#
#   make build   - compile everything
#   make test    - tier-1 gate: full test suite
#   make fmt     - fail when gofmt -l names any tracked .go file outside the
#                  analyzers' testdata/ golden inputs
#   make vet     - go vet across all packages
#   make lint    - carbonlint: the repo's custom determinism/numeric
#                  invariant analyzers (see DESIGN.md "Static invariants")
#   make race    - race-detector pass over the internal packages (the shared
#                  engine's parallel edge stepping must stay data-race free)
#   make chaos   - fault-tolerance suite under the race detector: deterministic
#                  fault injection, kill/resume, degradation, and the dial-side
#                  session both tiers share, replay cache included, as an edge
#                  runs it (see DESIGN.md "Failure model")
#   make chaos-region - elastic-regional-tier suite under the race detector:
#                  region kill/resume, torn delta frames, graceful departure
#                  with mid-run shard rebalancing, quorum degradation, the
#                  randomized-schedule parity property, and the shared
#                  session as a coordinator runs it, against an edge's
#   make fuzz-smoke - ten seconds of each of the thirteen native fuzz targets:
#                  the wire codec and the frame validators behind it
#                  (internal/deploy:
#                  FuzzReadMessage, FuzzMessageEncode), the shard checkpoint's
#                  own validation and JSON round trip (internal/engine:
#                  FuzzShardCheckpoint), the random streams against math/rand
#                  (internal/numeric: FuzzSplitRNGStream), the weights reader
#                  against its value-by-value oracle, the INT8 engine's
#                  short-K and long-K convolution stages and its input
#                  quantizer against their scalar references, the float
#                  fused conv + ReLU + pool stage against the three layers,
#                  the float convolution's batched backward pass against the
#                  per-sample one, the max-pool backward and the conv + ReLU
#                  + pool stage's backward against the argmax scatter
#                  (internal/nn: FuzzReadWeights, FuzzQConvShortK,
#                  FuzzQConvLongK, FuzzQuantizeActs, FuzzConvReLUPool,
#                  FuzzConvBackward, FuzzPoolRoute) and the
#                  trace CSV readers against their accept contract and a
#                  write/read round trip (internal/trace: FuzzReadPrices,
#                  FuzzReadWorkload); go test -fuzz takes one target per run
#   make bench   - every Benchmark* in the module, once, with -benchmem: the
#                  kernel micro-suite for reading while you work. It gates
#                  nothing; perf is policed by the slot-cost benchmark
#                  (go run ./benchmark, BENCHMARK.json)
#   make check   - fmt + vet + lint + race + full tests: the pre-commit gate
#   make loc     - line counts per package: non-test .go and .s files, raw and
#                  code (neither blank nor a // comment line); benchmark/ and
#                  testdata/ are excluded. The one rule behind every line
#                  count ROADMAP.md and a simplicity change quote: the size
#                  fence (TestSizeBudget in cmd/carbonlint) prints the table
#                  and the byte sizes of DESIGN.md and EXPERIMENTS.md, and
#                  fails when a raw total or a document is over its ceiling
#   make sim     - run the default 10-edge scenario comparison

GO ?= go

.PHONY: build test fmt vet lint race chaos chaos-region fuzz-smoke bench check loc sim

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@dirty=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l) || exit 1; \
		if [ -n "$$dirty" ]; then echo "gofmt -l is not clean:"; echo "$$dirty"; exit 1; fi

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/carbonlint ./...

race:
	$(GO) test -race ./internal/...

chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestCloud|TestEdgeSession' ./internal/deploy/

chaos-region:
	$(GO) test -race -count=1 -run 'TestRegionChaos|TestRegional|TestShardDeltaReplay|TestRegionSession' ./internal/deploy/

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadMessage -fuzztime=10s ./internal/deploy
	$(GO) test -run='^$$' -fuzz=FuzzMessageEncode -fuzztime=10s ./internal/deploy
	$(GO) test -run='^$$' -fuzz=FuzzShardCheckpoint -fuzztime=10s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzSplitRNGStream -fuzztime=10s ./internal/numeric
	$(GO) test -run='^$$' -fuzz=FuzzReadWeights -fuzztime=10s ./internal/nn
	$(GO) test -run='^$$' -fuzz=FuzzQConvShortK -fuzztime=10s ./internal/nn
	$(GO) test -run='^$$' -fuzz=FuzzQConvLongK -fuzztime=10s ./internal/nn
	$(GO) test -run='^$$' -fuzz=FuzzQuantizeActs -fuzztime=10s ./internal/nn
	$(GO) test -run='^$$' -fuzz=FuzzConvReLUPool -fuzztime=10s ./internal/nn
	$(GO) test -run='^$$' -fuzz=FuzzConvBackward -fuzztime=10s ./internal/nn
	$(GO) test -run='^$$' -fuzz=FuzzPoolRoute -fuzztime=10s ./internal/nn
	$(GO) test -run='^$$' -fuzz=FuzzReadPrices -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzReadWorkload -fuzztime=10s ./internal/trace

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

check: fmt vet lint race test

loc:
	$(GO) test -count=1 -run TestSizeBudget -v ./cmd/carbonlint

sim:
	$(GO) run ./cmd/carbonsim
