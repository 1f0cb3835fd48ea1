# SPAMeR reproduction — build / test / reproduce targets.

GO ?= go

.PHONY: all check fmt-check lang-check build vet test test-race perfbench-test examples-check artifacts-check verify-oracle fuzz-smoke fabric-smoke bench bench-ci bench-race repro figures trace sweep latency area ablate tune serve worker lines clean

# BENCH_JSON tracks the perf trajectory across PRs: bump the suffix when
# a PR materially changes the benchmark surface and commit the new file.
#
# BENCH_BASELINE is the stable snapshot bench-ci gates against. The gate
# (spamer benchjson -gate) fails the step when the SpecRun benchmark
# regresses more than GATE_PCT percent in ns/op, when any benchmark
# present in both runs gains allocs/op (exact — alloc counts don't
# jitter), or when MillionMessage allocates at all. It also fails hard
# when BENCH_BASELINE itself is missing or unparsable, so a
# renamed/uncommitted baseline can never silently reduce the gate to
# the allocation checks. Move BENCH_BASELINE forward deliberately, in
# the PR that establishes the new floor.
#
# GATE_PCT is the SpecRun ns/op tolerance (spamer benchjson -gate-pct):
# wide by default because wall time on shared runners jitters; the
# allocs/op checks are the gate's primary teeth.
BENCH_JSON ?= BENCH_35.json
BENCH_BASELINE ?= BENCH_9.json
# MillionMessage pins b.N to the delivered message count; the dedicated
# pass below records the true million-message run in $(BENCH_JSON)
# (bench-ci uses a shorter pass — allocs/op is exact at any count).
MM_ITERS ?= 1000000x
GATE_PCT ?= 25

all: check

# Everything CI runs: formatting, the go.mod language floor, compile,
# vet, unit tests, the race detector pass over the harness, service, and
# fabric worker pools, the
# benchmark module's vet and self-test, the examples' pinned output and
# the evaluation artifacts' pinned stdout.
check: fmt-check lang-check build vet test test-race perfbench-test examples-check artifacts-check

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# go.mod's "go 1.22" is the language version every file is built and
# vetted at. A //go:build line naming a Go release raises that file's
# version past it and hides the file from vet's stdversion check, so
# fail, listing the files, on any.
lang-check:
	@out=$$(grep -rlE --include='*.go' --exclude-dir=.bench_build '^//go:build.*\bgo1\.[0-9]+' .); \
	if [ -n "$$out" ]; then echo "//go:build lines naming a Go release:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# perfbench/ is its own Go module, so ./... at the root never compiles
# it: this step catches a change that removes an API the repository
# benchmark calls.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# The example programs are the public API's only callers outside tests,
# and each is deterministic: run every examples/<name>/main.go and diff
# its stdout against examples/<name>/output.txt. After a change that is
# meant to move an example's numbers, regenerate that file with
#   go run ./examples/<name> > examples/<name>/output.txt
EXAMPLES := $(patsubst examples/%/main.go,%,$(wildcard examples/*/main.go))
examples-check:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for e in $(EXAMPLES); do \
		$(GO) run ./examples/$$e > "$$out" || exit 1; \
		diff -u examples/$$e/output.txt "$$out" || { echo "examples-check: $$e output differs"; exit 1; }; \
	done; \
	echo "examples-check: $(words $(EXAMPLES)) examples match"

# The evaluation artifacts are deterministic too (the same bytes at any
# -parallel): build spamer once, run each subcommand below and diff its
# stdout against testdata/artifacts/<name>.txt. Each entry is
# <name>:<args, comma-separated>. bench, sweep, ablate and tune run a
# second time at -parallel 1 against the same file, pinning that a
# study's results do not depend on the pool's width. After a change that
# is meant to move an artifact's numbers, regenerate its file, for
# example
#   go run ./cmd/spamer trace -alg tuned > testdata/artifacts/trace-tuned.txt
ARTIFACTS := bench:bench trace:trace trace-tuned:trace,-alg,tuned \
	trace-csv:trace,-csv trace-tuned-csv:trace,-alg,tuned,-csv sweep:sweep \
	latency:latency area:area ablate:ablate tune:tune \
	phases-allreduce:trace,-phases,allreduce phases-alltoall:trace,-phases,alltoall \
	phases-reduce:trace,-phases,reduce \
	bench:bench,-parallel,1 sweep:sweep,-parallel,1 ablate:ablate,-parallel,1 \
	tune:tune,-parallel,1
artifacts-check:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/spamer" ./cmd/spamer || exit 1; \
	for a in $(ARTIFACTS); do \
		name=$${a%%:*}; args=$$(echo "$${a#*:}" | tr , ' '); \
		"$$dir/spamer" $$args > "$$dir/out" 2> "$$dir/err" || { cat "$$dir/err"; echo "artifacts-check: spamer $$args failed"; exit 1; }; \
		diff -u testdata/artifacts/$$name.txt "$$dir/out" || { echo "artifacts-check: $$name differs"; exit 1; }; \
	done; \
	echo "artifacts-check: $(words $(ARTIFACTS)) artifacts match"

# Randomized differential-oracle campaign (docs/TESTING.md): N seeded
# cases under the full invariant battery, each additionally run through
# a WORKERS-sized fabric pool whose outcomes must be byte-identical to
# local (docs/FABRIC.md; WORKERS=0 disables). Failing cases are
# minimized and written as JSON repros under ORACLE_OUT; replay one with
#   go run ./cmd/spamer verify -repro <file>
N ?= 50
ORACLE_SEED ?= 1
ORACLE_OUT ?= .
WORKERS ?= 2
verify-oracle:
	$(GO) run ./cmd/spamer verify -n $(N) -seed $(ORACLE_SEED) -out $(ORACLE_OUT) -workers $(WORKERS)

# Short native-fuzz pass over every Fuzz target (seed corpora live in
# testdata/fuzz). Go allows one fuzz target per -fuzz run, hence the
# loop. FUZZTIME=30s in CI's nightly non-blocking job.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzPredictors -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzReadSpecs -fuzztime=$(FUZZTIME) ./internal/experiments
	$(GO) test -run=NONE -fuzz=FuzzSpamerVsVL -fuzztime=$(FUZZTIME) ./internal/oracle
	$(GO) test -run=NONE -fuzz=FuzzDAGSpec -fuzztime=$(FUZZTIME) ./internal/workloads/dag

# Full benchmark pass: every table/figure as a testing.B target. The
# stream also feeds spamer benchjson, which records name -> ns/op and
# allocs/op into $(BENCH_JSON) so perf is diffable across PRs.
bench:
	( $(GO) test -run=NONE -bench=. -benchmem ./... && \
	  $(GO) test -run=NONE -bench=MillionMessage -benchmem -benchtime=$(MM_ITERS) . ) \
	| $(GO) run ./cmd/spamer benchjson -out $(BENCH_JSON)

# Quick variant for CI: the kernel, bus and experiment-layer benchmarks
# plus the MillionMessage hot path, gated (-gate: >25% SpecRun
# regression, any allocs/op increase, or a MillionMessage alloc fails
# the step). Iteration counts are per-package: the ns-scale sim and noc
# microbenchmarks need 10000x so one-time setup allocations amortize
# below one per op (at 10x they read as false allocs/op regressions);
# SpecRun and HarnessMatrix are 0.2-1 s/op end-to-end sweeps, so 10x
# keeps the step under a minute. Blocking in ci.yml: the timing bar is
# wide enough for shared-runner noise, and allocs/op is exact.
bench-ci:
	( $(GO) test -run=NONE -bench=. -benchmem -benchtime=10000x ./internal/sim ./internal/noc && \
	  $(GO) test -run=NONE -bench=. -benchmem -benchtime=10x ./internal/experiments && \
	  $(GO) test -run=NONE -bench=MillionMessage -benchmem -benchtime=200000x . ) \
	| $(GO) run ./cmd/spamer benchjson -out bench-ci.json -baseline $(BENCH_BASELINE) -gate -gate-pct $(GATE_PCT)

# Race-detector pass over the MillionMessage benchmark: the open-loop
# engine's hot path — the kernel, the vlq endpoint state machines and
# the synthetic shapes' threads, all on the kernel goroutine — runs once
# under -race per PR. Every simulated thread is a step machine on its
# kernel's goroutine, so no coroutine is left to race; test-race races
# the harness, service and fabric pools, which run kernels on several
# goroutines at once. Iterations are cut well below MM_ITERS — the race
# runtime is ~10x slower and the goal is coverage, not timing.
MM_RACE_ITERS ?= 20000x
bench-race:
	$(GO) test -race -run=NONE -bench=MillionMessage -benchmem -benchtime=$(MM_RACE_ITERS) .

# Regenerate every evaluation artifact to stdout.
repro: figures trace sweep latency area

figures:
	$(GO) run ./cmd/spamer bench

trace:
	$(GO) run ./cmd/spamer trace

sweep:
	$(GO) run ./cmd/spamer sweep

latency:
	$(GO) run ./cmd/spamer latency

area:
	$(GO) run ./cmd/spamer area

ablate:
	$(GO) run ./cmd/spamer ablate

tune:
	$(GO) run ./cmd/spamer tune

# End-to-end fabric exercise with real processes (docs/FABRIC.md):
# coordinator + two workers, a golden batch byte-compared against a
# local run, then a SIGKILLed worker whose leases must re-dispatch to
# the survivor. Blocking in CI.
fabric-smoke:
	$(GO) run ./cmd/spamer fabric-smoke

# Long-lived simulation-as-a-service daemon (docs/SERVICE.md); it is the
# fabric coordinator, so attach workers via `make worker COORDINATOR=...`.
serve:
	$(GO) run ./cmd/spamer serve

COORDINATOR ?= http://127.0.0.1:8080
worker:
	$(GO) run ./cmd/spamer worker -coordinator $(COORDINATOR)

# The size of the Go code: non-blank lines that are not // comments, in
# the .go files outside perfbench/ (its own module) and .bench_build/,
# split into non-test and _test.go files. It reports; it does not gate.
lines:
	@find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*' | xargs awk ' \
		FNR == 1 { test = FILENAME ~ /_test\.go$$/ } \
		/^[ \t]*$$/ || /^[ \t]*\/\// { next } \
		{ if (test) t++; else n++ } \
		END { printf "go lines: %d non-test, %d test\n", n, t }'

clean:
	$(GO) clean ./...
