# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet race race-core resume-guard net-guard ci bench bench-slot bench-shard bench-shard-record bench-sweep bench-sweep-record bench-link bench-record bench-compare bench-telemetry bench-faults bench-runstats bench-runstats-record bench-net bench-net-record sweep examples fuzz clean

all: build vet test

# Mirror of .github/workflows/ci.yml: build, vet, tests, the race
# detector over the concurrent packages (sweep pool, parallel optimizer,
# sharded run engine), the checkpoint/restore guard, then the
# message-runtime guard and the sharded hot-path, branching-sweep,
# runstats-overhead and asynchrony-overhead regression gates.
ci: build vet test race-core resume-guard net-guard bench-shard bench-sweep bench-runstats bench-net

race-core:
	$(GO) test -race ./internal/core/... ./internal/firefly/... ./internal/experiments/... ./cmd/d2dsim/...

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

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem ./...

# Reference stepper vs. the run engine on the core hot path (see
# EXPERIMENTS.md "Slot engine throughput").
bench-slot:
	$(GO) test -run '^$$' -bench 'BenchmarkStepSlot/[^/]+/n=(200|1000|5000|20000)$$' -benchmem ./internal/core/

# Sharded-engine regression gate: re-run the stepping benchmarks of the
# reference stepper (seq, the test oracle) and the engine (shard) at a
# FIXED iteration count — the slot mix an engine sees depends on b.N, so
# the gate and the committed record must use the same -benchtime — and
# fail on a >25% ns/op regression against BENCH_shard.json. All sizes are reported; only n=5000 and n=20000 are
# gated — 300 slots at n <= 1000 is ~10 ms of measured work, within
# scheduler noise of the 25% budget, and n=100000 is skipped here to
# keep `make ci` affordable (it lives in the record via
# bench-shard-record).
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkStepSlot/(seq|shard)/n=(200|1000|5000|20000)$$' -benchtime 300x -benchmem ./internal/core/ \
		| $(GO) run ./cmd/benchjson -o /tmp/bench-shard.json
	$(GO) run ./cmd/benchjson -old BENCH_shard.json -new /tmp/bench-shard.json \
		-match 'BenchmarkStepSlot/(seq|shard)/n=(200|1000|5000|20000)$$'
	$(GO) run ./cmd/benchjson -old BENCH_shard.json -new /tmp/bench-shard.json \
		-match 'BenchmarkStepSlot/(seq|shard)/n=(5000|20000)$$' -max-time-regress 25

# Refresh the committed sharded-gate baseline (all sizes, including
# n=100000, at the gate's fixed iteration count) plus the end-to-end
# engine-vs-reference run benchmark.
bench-shard-record:
	{ $(GO) test -run '^$$' -bench 'BenchmarkStepSlot/(seq|shard)/' -benchtime 300x -benchmem ./internal/core/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRunFSTSharded' -benchtime 1x -timeout 60m -benchmem ./internal/core/ ; } \
		| $(GO) run ./cmd/benchjson -o BENCH_shard.json
	@cat BENCH_shard.json

# Branching-sweep throughput gate: the prefix-planner, env-memoization
# and result-cache benchmarks re-run at the record's fixed iteration
# count (branch calibration depends on the probe run, so gate and record
# must agree on -benchtime) and diffed against BENCH_sweep.json. Only the
# prefix-planner pair is time-gated: each side is hundreds of
# milliseconds of measured work, far above scheduler noise, and a >25%
# ns/op regression there means prefix sharing stopped paying. The cache
# benchmarks are reported ungated — a fully warm sweep is microseconds
# of work, within noise of any sane budget.
bench-sweep:
	$(GO) test -run '^$$' -bench 'BenchmarkSweepPrefix|BenchmarkEnvMemoized|BenchmarkSweepCached' -benchtime 3x -benchmem ./internal/experiments/ \
		| $(GO) run ./cmd/benchjson -o /tmp/bench-sweep.json
	$(GO) run ./cmd/benchjson -old BENCH_sweep.json -new /tmp/bench-sweep.json
	$(GO) run ./cmd/benchjson -old BENCH_sweep.json -new /tmp/bench-sweep.json \
		-match 'BenchmarkSweepPrefix/(cold|shared)' -max-time-regress 25

# Refresh the committed branching-sweep baseline at the gate's fixed
# iteration count.
bench-sweep-record:
	$(GO) test -run '^$$' -bench 'BenchmarkSweepPrefix|BenchmarkEnvMemoized|BenchmarkSweepCached' -benchtime 3x -benchmem ./internal/experiments/ \
		| $(GO) run ./cmd/benchjson -o BENCH_sweep.json
	@cat BENCH_sweep.json

# Runstats overhead gate: the off/on stepping benchmarks re-run at a
# FIXED iteration count and the enabled path is gated WITHIN the same
# record against its disabled partner (benchjson -pair), so host-speed
# variance cancels and a 5% budget is meaningful where a cross-record
# gate would drown in scheduler noise. Only n=5000 is gated (seconds of
# measured work per side; n=200 is ~70 ms, reported but inside noise).
# The cross-record diff against BENCH_runstats.json is informational.
# The disabled path's allocation bound is pinned separately by
# TestStepSlotDisabledRunStatsAllocs in the plain test run.
bench-runstats:
	$(GO) test -run '^$$' -bench 'BenchmarkStepSlotRunStats/(off|on)/n=(200|5000)$$' -benchtime 2000x -benchmem ./internal/core/ \
		| $(GO) run ./cmd/benchjson -o /tmp/bench-runstats.json
	$(GO) run ./cmd/benchjson -old BENCH_runstats.json -new /tmp/bench-runstats.json
	$(GO) run ./cmd/benchjson -in /tmp/bench-runstats.json -pair '/off/=/on/' \
		-match 'n=5000$$' -max-pair-regress 5

# Refresh the committed runstats-overhead baseline at the gate's fixed
# iteration count.
bench-runstats-record:
	$(GO) test -run '^$$' -bench 'BenchmarkStepSlotRunStats/(off|on)/n=(200|5000)$$' -benchtime 2000x -benchmem ./internal/core/ \
		| $(GO) run ./cmd/benchjson -o BENCH_runstats.json
	@cat BENCH_runstats.json

# Asynchrony-runtime overhead gate: the no-plan baseline (off) and the
# degenerate-plan path (degen) re-run at a FIXED iteration count and the
# degenerate path is gated WITHIN the same record against its baseline
# partner (benchjson -pair) — a degenerate plan never constructs the
# transport queue, so the adversary-off hot path must stay within 5% of
# the seed loop. Only n=5000 is gated (seconds of measured work per
# side); the active-adversary rows (on) are reported ungated as the
# price of the actual fault model. The cross-record diff against
# BENCH_net.json is informational.
bench-net:
	$(GO) test -run '^$$' -bench 'BenchmarkStepSlotNet/(off|degen|on)/n=(200|5000)$$' -benchtime 1000x -benchmem ./internal/core/ \
		| $(GO) run ./cmd/benchjson -o /tmp/bench-net.json
	$(GO) run ./cmd/benchjson -old BENCH_net.json -new /tmp/bench-net.json
	$(GO) run ./cmd/benchjson -in /tmp/bench-net.json -pair '/off/=/degen/' \
		-match 'n=5000$$' -max-pair-regress 5

# Refresh the committed asynchrony-overhead baseline at the gate's fixed
# iteration count.
bench-net-record:
	$(GO) test -run '^$$' -bench 'BenchmarkStepSlotNet/(off|degen|on)/n=(200|5000)$$' -benchtime 1000x -benchmem ./internal/core/ \
		| $(GO) run ./cmd/benchjson -o BENCH_net.json
	@cat BENCH_net.json

# Link-geometry cache hot path: run engine + cached/direct broadcast,
# persisted as BENCH_slot.json (ns/op, allocs/op) via cmd/benchjson.
bench-link:
	{ $(GO) test -run '^$$' -bench 'BenchmarkStepSlot/[^/]+/n=(200|1000|5000|20000)$$' -benchmem ./internal/core/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkBroadcastCached|BenchmarkBroadcastDirect' -benchmem ./internal/rach/ ; } \
		| $(GO) run ./cmd/benchjson -o BENCH_slot.json
	@cat BENCH_slot.json

# Telemetry overhead: the disabled baseline (BenchmarkStepSlot, nil *Run
# — must stay allocation-free in steady state, also pinned by
# TestStepSlotDisabledTelemetryAllocs) next to the enabled paths
# (counters-only and sample-every=100). See DESIGN.md §7.
bench-telemetry:
	$(GO) test -run '^$$' -bench 'BenchmarkStepSlot(Telemetry)?/[^/]+/n=200$$' -benchmem ./internal/core/

# Fault-layer overhead on the slot hot path: nil plan vs. empty plan
# (boundary checks only — must match nil, also pinned by
# TestStepSlotEmptyFaultPlanAllocs) vs. an active loss rate (one RNG draw
# per delivery). See DESIGN.md §9.
bench-faults:
	$(GO) test -run '^$$' -bench 'BenchmarkStepSlot(Faults)?/[^/]+/n=200$$' -benchmem ./internal/core/

# Full hot-path record: per-slot + broadcast benchmarks at the default
# benchtime, whole-run benchmarks at a fixed iteration count, all
# merged into BENCH_slot.json. The stepping benchmarks stop at n=20000
# here; n=100000 and the end-to-end sharded runs live in BENCH_shard.json
# (bench-shard-record), which uses the gate's fixed iteration count.
bench-record:
	{ $(GO) test -run '^$$' -bench 'BenchmarkStepSlot(Faults|Telemetry)?/[^/]+/n=(200|1000|5000|20000)$$' -benchmem ./internal/core/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSnapshotRoundTrip' -benchmem ./internal/core/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkBroadcastCached|BenchmarkBroadcastDirect' -benchmem ./internal/rach/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRunFST$$|BenchmarkRunST' -benchtime 3x -benchmem ./internal/core/ ; } \
		| $(GO) run ./cmd/benchjson -o BENCH_slot.json
	@cat BENCH_slot.json

# Re-run the recorded benchmarks and diff against the committed
# BENCH_slot.json: full report first (times and stepping-benchmark alloc
# counts are machine/b.N-dependent, so ungated), then a hard gate on the
# designed zero-allocation broadcast path.
bench-compare:
	{ $(GO) test -run '^$$' -bench 'BenchmarkStepSlot(Faults|Telemetry)?/[^/]+/n=(200|1000|5000|20000)$$' -benchmem ./internal/core/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSnapshotRoundTrip' -benchmem ./internal/core/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkBroadcastCached|BenchmarkBroadcastDirect' -benchmem ./internal/rach/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRunFST$$|BenchmarkRunST' -benchtime 3x -benchmem ./internal/core/ ; } \
		| $(GO) run ./cmd/benchjson -o /tmp/bench-new.json
	$(GO) run ./cmd/benchjson -old BENCH_slot.json -new /tmp/bench-new.json
	$(GO) run ./cmd/benchjson -old BENCH_slot.json -new /tmp/bench-new.json \
		-match BenchmarkBroadcastCached -max-alloc-regress 0

# Regenerate every table and figure of the paper's evaluation.
sweep:
	$(GO) run ./cmd/d2dsim -exp table1
	$(GO) run ./cmd/d2dsim -exp fig3 -seeds 5 -plot
	$(GO) run ./cmd/d2dsim -exp fig4 -seeds 5 -plot
	$(GO) run ./cmd/d2dsim -exp ops -sizes 50,200,800 -seeds 3

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/syncdemo
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
