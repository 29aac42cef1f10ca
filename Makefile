GO ?= go

.PHONY: build test race lint lint-fast lint-perfbudget bench registry-bench perfgate generate ci all trace-smoke fuzz-smoke chaos stealsweep stealsweep-smoke serve-smoke serve-soak perfbench-test

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect every scheduler backend that has a thief/victim protocol
# (direct task stack, Chase-Lev deque, locked deque, cilk-style,
# central queue) plus the simulator driving them, the registry's
# chaos-profile conformance suite (internal/sched), and the serving
# layer's concurrent-submission/mid-flight-cancellation suite.
race:
	$(GO) test -race -count=1 ./internal/core/... ./internal/chaselev/... \
		./internal/locksched/... ./internal/cilkstyle/... \
		./internal/ompstyle/... ./internal/sim/... ./internal/sched/... \
		./internal/serve/...

# woolvet enforces the direct-task-stack protocol invariants
# (atomic-only fields, owner-private fields, cache-line layout,
# spawn/join balance, publication ordering, the compiler perf budget,
# and the stale-suppression audit) over the whole module. See
# DESIGN.md §10 and §15.
lint:
	$(GO) run ./cmd/woolvet ./...

# The fast passes only — everything except perfbudget, which shells
# out to `go build -gcflags=-m` per package and wants a warm build
# cache (CI runs the two halves as separate steps for readable
# timings; see .github/workflows/ci.yml).
lint-fast:
	$(GO) run ./cmd/woolvet -only atomicfield,ownerprivate,layoutguard,spawnjoin,generated,publication ./...

# The compiler-budget pass alone, dumping the raw -gcflags=-m logs it
# parsed into woolvet-mlogs/ (the CI failure artifact).
lint-perfbudget:
	$(GO) run ./cmd/woolvet -only perfbudget -mlog woolvet-mlogs ./...

# Machine-readable fast-path/idle-engine numbers for the perf
# trajectory; commit the refreshed BENCH_core.json with perf PRs.
bench:
	$(GO) run ./cmd/woolbench -corejson BENCH_core.json

# The registry benchmark suite: generic vs woolgen-generated spawn/join
# ladder, steal latency, and fib(28) on every registered backend.
# Refresh and commit BENCH_registry.json when a perf PR moves the
# gated keys (the gate block inside the file defines what's enforced).
registry-bench:
	$(GO) run ./cmd/woolbench -registryjson BENCH_registry.json

# The perf-regression gate: re-measure the gated keys and fail on >5%
# regression against the committed BENCH_registry.json, on a ceiling
# breach (generated private pair ≤ 15ns), or on the generated path
# falling behind the generic path it specializes. On noisy shared
# runners widen with WOOL_PERFGATE_TOLERANCE=0.15 or skip with
# WOOL_PERFGATE_SKIP=1.
perfgate:
	$(GO) run ./cmd/woolbench -perfgate BENCH_registry.json

# Regenerate the woolgen outputs (*_gen.go) from their go:generate
# declarations. The drift test (internal/gen TestCommittedOutputsAreFresh)
# and woolvet's provenance pass fail if committed outputs go stale or
# get hand-edited.
generate:
	$(GO) generate ./...

# The steal-policy sweep (DESIGN.md §14): every policy × amount ×
# workload on every backend advertising steal policies, with the steal
# matrix extracted from the run's trace, plus the same policy grid on
# the simulator's sharded 64-processor topology. Refresh and commit
# BENCH_steal.json when the policy layer or the topology model changes.
stealsweep:
	$(GO) run ./cmd/woolbench -scale full -stealsweep BENCH_steal.json

# CI smoke of the same sweep at quick scale: the grid must complete,
# cover all four policies and both amounts, and the localized policy
# must concentrate steals inside its neighborhood (local_frac 1 at 4
# workers with neighborhood 2, where random leaves the neighborhood).
STEALSWEEP_JSON ?= /tmp/woolsteal-smoke.json
stealsweep-smoke:
	$(GO) run ./cmd/woolbench -scale quick -stealsweep $(STEALSWEEP_JSON)
	grep -q '"policy": "random"' $(STEALSWEEP_JSON)
	grep -q '"policy": "last-victim"' $(STEALSWEEP_JSON)
	grep -q '"policy": "sequential"' $(STEALSWEEP_JSON)
	grep -q '"policy": "localized"' $(STEALSWEEP_JSON)
	grep -q '"amount": "half"' $(STEALSWEEP_JSON)
	grep -q '"kind": "direct-stack"' $(STEALSWEEP_JSON)

# CI smoke of the woolserve benchmark (DESIGN.md §16-17) at quick
# scale: the serving layer must complete the full request stream on
# both direct-task-stack port layers, the report must carry the schema
# tag and latency percentiles, the mixed-cancellation cell must have
# actually cancelled requests mid-flight (the abort/Reset path ran
# inside the measured stream), the overload cell must have shed load
# (shed_rate is omitted when zero), and the breaker cell must have
# measured a recovery.
SERVEBENCH_JSON ?= /tmp/woolserve-smoke.json
serve-smoke:
	$(GO) run ./cmd/woolbench -scale quick -serve $(SERVEBENCH_JSON)
	grep -q '"schema": "wool-serve-bench/v2"' $(SERVEBENCH_JSON)
	grep -q '"backend": "wool"' $(SERVEBENCH_JSON)
	grep -q '"backend": "woolgen"' $(SERVEBENCH_JSON)
	grep -q '"workload": "mixed-cancel"' $(SERVEBENCH_JSON)
	grep -q '"workload": "overload-2x"' $(SERVEBENCH_JSON)
	grep -q '"workload": "breaker-recovery"' $(SERVEBENCH_JSON)
	grep -q '"lat_p50_us"' $(SERVEBENCH_JSON)
	grep -q '"lat_p99_us"' $(SERVEBENCH_JSON)
	grep -q '"req_per_s"' $(SERVEBENCH_JSON)
	grep -q '"shed_rate"' $(SERVEBENCH_JSON)
	grep -q '"recovery_ms"' $(SERVEBENCH_JSON)
	@grep -v '"cancelled": 0' $(SERVEBENCH_JSON) | grep -q '"cancelled"' \
		|| { echo "serve-smoke: no cell cancelled any request mid-flight"; exit 1; }

# The self-healing soak (DESIGN.md §17): a seeded mixed workload —
# healthy tenants at ~1.5x capacity, a panicking tenant, a slow tenant
# with doomed deadlines — against serve-level chaos (failed Resets,
# failing probes), race-detected. Asserts healthy success >= 99%, the
# failing tenant's breaker opened and half-opened, at least one lane
# quarantined and replaced, the accounting identities, and zero
# goroutine leaks at shutdown. The -v log carries the replay line
# (seed + duration). Raise SOAK for a longer soak.
SOAK ?= 10s
serve-soak:
	$(GO) test ./internal/serve/ -race -count=1 -run 'TestServeSoak' -v \
		-serve.soak=$(SOAK)

# End-to-end check of the wooltrace pipeline (DESIGN.md §11): export a
# Chrome trace from a real run, validate it against the trace_event
# schema with -checktrace, and require the load-balancing events (STEAL
# from the run, PARK from the settle window) plus a non-empty steal
# matrix. The settle window lets the idle workers reach their PARK
# transitions before the snapshot — on a loaded single-CPU machine they
# may not get a timeslice to park during the run itself.
TRACE_SMOKE_JSON ?= /tmp/wooltrace-smoke.json
trace-smoke:
	$(GO) run ./cmd/woolrun -workload fib -n 25 -workers 4 -private \
		-settle 300ms -trace $(TRACE_SMOKE_JSON) -stealmatrix | tee $(TRACE_SMOKE_JSON).out
	$(GO) run ./cmd/woolrun -checktrace $(TRACE_SMOKE_JSON)
	grep -q '"STEAL"' $(TRACE_SMOKE_JSON)
	grep -q '"PARK"' $(TRACE_SMOKE_JSON)
	grep -q 'total steals:' $(TRACE_SMOKE_JSON).out
	! grep -q 'total steals: 0$$' $(TRACE_SMOKE_JSON).out

# Short native-fuzz passes over the two lock-free backends: random
# seed-derived spawn trees with irregular fan-out, a tiny task pool so
# every run also crosses the overflow-degradation path, and the serial
# walk as the oracle. Raise FUZZTIME for a longer soak.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzSpawnTree -fuzztime $(FUZZTIME)
	$(GO) test ./internal/chaselev/ -run '^$$' -fuzz FuzzSpawnTree -fuzztime $(FUZZTIME)

# The fault-injection torture suite (DESIGN.md §12): every registered
# scheduler under every built-in chaos profile, race-detected, then a
# time-boxed randomized seed sweep that logs each seed tried so any
# failure is replayable. Raise CHAOS_SWEEP for a longer soak.
CHAOS_SWEEP ?= 20s
chaos:
	$(GO) test ./internal/sched/ -race -count=1 -run 'TestChaosTorture' -v
	$(GO) test ./internal/sched/ -race -count=1 -run 'TestChaosSeedSweep' -v \
		-chaos.sweep=$(CHAOS_SWEEP)

# perfbench (the repo's end-to-end benchmark) is its own module
# (perfbench/go.mod, replacing gowool with this checkout), so the root
# module's build and tests never compile it — yet it embeds
# sched.Scheduler, calls sched.Register and reads Pool.Native.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# What .github/workflows/ci.yml runs: build, vet, woolvet, the tier-1
# suite, a short race pass over the scheduler protocols and the
# registry conformance suite, and the perfbench module's vet and tests.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./cmd/woolvet ./...
	$(GO) test ./...
	$(GO) test -race -count=1 -short ./internal/core/... ./internal/chaselev/... \
		./internal/locksched/... ./internal/cilkstyle/... \
		./internal/ompstyle/... ./internal/sim/... \
		./internal/sched/... ./internal/serve/... ./internal/workloads/
	$(MAKE) perfbench-test
