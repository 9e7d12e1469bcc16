# Convenience targets; everything is plain `go` underneath.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build test vet race race-core resume-guard net-guard perfbench ci bench sweep examples fuzz clean

all: build vet test

# Mirror of .github/workflows/ci.yml, step for step: build, vet, tests,
# the race detector over the concurrent packages, the checkpoint/restore
# and message-runtime guards, the perfbench module's own checks, then the
# benchmark ledger and its pair gates.
ci: build vet test race-core resume-guard net-guard perfbench examples bench

# The core package alone took 534 s under -race on a 2-CPU host (Intel Xeon),
# close to go test's 10-minute default timeout; the explicit bound leaves
# headroom for slower runners.
race-core:
	$(GO) test -race -timeout 20m ./internal/core/... ./internal/experiments/... ./cmd/d2dsim/...

# Checkpoint/restore correctness spine under the race detector: resume
# bit-identity across worker counts, shard layouts and the reference
# stepper, and the committed golden checkpoint fixture.
resume-guard:
	$(GO) test -race -count 1 -run 'TestResume|TestGoldenCheckpoint' ./internal/core/
	$(GO) test -count 1 ./internal/snapshot/

# Bounded-asynchrony correctness spine under the race detector: degenerate
# bit-identity, adversary determinism across shard layouts and worker
# counts, mid-flight checkpoint resume, watchdog/partition hardening and the
# n=200 acceptance run, plus the transport queue's own suite.
net-guard:
	$(GO) test -race -count 1 -run 'TestNet' ./internal/core/
	$(GO) test -race -count 1 ./internal/asyncnet/

build:
	$(GO) build ./...

# gofmt -l walks the whole tree, the perfbench module included, and lists
# every file whose formatting differs; any listed file fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$($(GOFMT) -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The perfbench module (end-to-end benchmark, its own go.mod) reaches the
# internal packages through a replace directive, so `go build ./...` at the
# root does not cover it.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The benchmark ledger. A fixed benchmark set, each at a fixed -benchtime,
# is folded by per-name median into BENCH.json, which also names the host
# (CPU, CPU count, GOMAXPROCS, Go version). Every gate then compares a pair
# WITHIN that record, so no gate depends on the host:
#   - the engine (shard) within 25% of the reference stepper (seq) per slot
#     at n=5000 and n=20000;
#   - runstats on within 5% of off per slot at n=5000;
#   - a degenerate asynchrony plan within 5% of no plan per slot at n=5000;
#   - the recovery sweep with its checkpoint ring no slower than without it;
#   - environment construction through a warm geometry cache no slower than
#     cold construction at n=1000.
# The stepping benchmarks measure their cases in alternating rounds (see
# benchSlots in internal/core); the two 5% pairs take -count 5 on top, 25
# windows a side, because one window varies by up to 10% on a busy 2-CPU
# host. The two 0% pairs (SweepPrefix, EnvMemoized) alternate their sides
# in three rounds inside the benchmark (benchPair in internal/experiments)
# and take no -count: repeats by -count run every cold iteration before
# any warm one, so a drift in host speed between the blocks flips the gate.
# Committing BENCH.json makes a ledger entry. The allocation guards are
# tests (TestStepSlot*Allocs, TestBroadcastCachedAllocs) and run in `make
# test`.
BENCH = $(GO) test -run '^$$' -benchmem
bench:
	{ $(BENCH) -bench '^BenchmarkStepSlot$$/.*/n=(200|1000|5000|20000)\b' -benchtime 100x ./internal/core/ ; \
	  $(BENCH) -bench '^BenchmarkStepSlotRunStats$$/.*/n=5000' -benchtime 100x -count 5 ./internal/core/ ; \
	  $(BENCH) -bench '^BenchmarkStepSlotNet$$/(off|degen)/n=5000' -benchtime 100x -count 5 ./internal/core/ ; \
	  $(BENCH) -bench '^BenchmarkStepSlotNet$$/on/n=5000' -benchtime 100x ./internal/core/ ; \
	  $(BENCH) -bench '^BenchmarkStepSlot(RunStats|Net|Faults|Telemetry)$$/.*/n=200\b' -benchtime 100x -count 3 ./internal/core/ ; \
	  $(BENCH) -bench '^BenchmarkSnapshotRoundTrip$$' -benchtime 100x -count 5 ./internal/core/ ; \
	  $(BENCH) -bench '^BenchmarkRun(FST|ST|STSparse)$$/n=200\b' -benchtime 1x -count 5 ./internal/core/ ; \
	  $(BENCH) -bench '^BenchmarkRun(FST|ST)$$/n=1000' -benchtime 1x -count 3 ./internal/core/ ; \
	  $(BENCH) -bench '^BenchmarkBroadcast(Cached|Direct)$$' -benchtime 1000x -count 5 ./internal/rach/ ; \
	  $(BENCH) -bench '^Benchmark(SweepPrefix|EnvMemoized)$$' -benchtime 1x ./internal/experiments/ ; \
	  $(BENCH) -bench '^BenchmarkSweepCached$$' -benchtime 1x -count 3 ./internal/experiments/ ; } \
		| $(GO) run ./cmd/benchjson -o BENCH.json
	$(GO) run ./cmd/benchjson -in BENCH.json -pair '/seq/=/shard/' -match '^BenchmarkStepSlot/.*/n=(5000|20000)$$' -max-pair-regress 25
	$(GO) run ./cmd/benchjson -in BENCH.json -pair '/off/=/on/' -match '^BenchmarkStepSlotRunStats/.*/n=5000$$' -max-pair-regress 5
	$(GO) run ./cmd/benchjson -in BENCH.json -pair '/off/=/degen/' -match '^BenchmarkStepSlotNet/.*/n=5000$$' -max-pair-regress 5
	$(GO) run ./cmd/benchjson -in BENCH.json -pair '/cold=/shared' -match '^BenchmarkSweepPrefix/' -max-pair-regress 0
	$(GO) run ./cmd/benchjson -in BENCH.json -pair '/cold=/memoized' -match '^BenchmarkEnvMemoized/' -max-pair-regress 0

# Regenerate every table and figure of the paper's evaluation.
sweep:
	$(GO) run ./cmd/d2dsim -exp table1
	$(GO) run ./cmd/d2dsim -exp fig3 -seeds 5 -plot
	$(GO) run ./cmd/d2dsim -exp fig4 -seeds 5 -plot
	$(GO) run ./cmd/d2dsim -exp ops -sizes 50,200,800 -seeds 3

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/syncdemo
	$(GO) run ./examples/mobility
	$(GO) run ./examples/servicediscovery
	$(GO) run ./examples/localization
	$(GO) run ./examples/firingraster
	$(GO) run ./examples/underlay
	$(GO) run ./examples/reproduce
	$(GO) run ./examples/faultrecovery

fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/manifest/
	$(GO) test -fuzz=FuzzSummarize -fuzztime=30s ./internal/metrics/
	$(GO) test -fuzz=FuzzLoadPlan -fuzztime=30s ./internal/faults/
	$(GO) test -fuzz=FuzzSnapshotDecode -fuzztime=30s ./internal/snapshot/
	$(GO) test -fuzz=FuzzLoadNetPlan -fuzztime=30s ./internal/asyncnet/

clean:
	$(GO) clean ./...
