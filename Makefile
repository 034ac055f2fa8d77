# pepscale build / test / reproduction targets.

GO ?= go

.PHONY: all check build vet lint lint-pepvet lint-extra test test-short bench bench-json bench-smoke scale-smoke serve-smoke race chaos chaos-elastic chaos-serve fuzz-short cover examples experiments quick-experiments clean

all: build vet test

# check is the pre-merge gate: compile, vet, lint, full tests, the race
# detector over every package, and the streaming-service smoke.
check: build vet lint test race serve-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is split in two so CI can run the repo's own analyzers with GitHub
# annotations while the optional third-party linters stay a separate step.
lint: lint-pepvet lint-extra

# lint-pepvet runs the repo's own analyzer suite (cmd/pepvet): six
# checkers (determinism, hotpath, allocflow, ranksafety, clockaudit,
# blockreg) enforcing the invariants documented in DESIGN.md §7. All six
# share one package load and one interprocedural summary computation —
# the call graph, SCC order, and per-function effect summaries are built
# once and cached for the whole suite, so adding a checker costs its walk
# but never a second type-check. PEPVET_FLAGS feeds extra driver flags
# (-json for machine output, -github for CI annotations).
PEPVET_FLAGS ?=
lint-pepvet:
	$(GO) run ./cmd/pepvet $(PEPVET_FLAGS) ./...

# lint-extra runs staticcheck and govulncheck when they are installed.
# Both are optional locally (the container may not ship them) but CI
# installs and runs both.
lint-extra:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed; skipping"; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# chaos sweeps the fault-injection, checkpoint/restart, and recovery test
# schedules under the race detector: every injected crash, drop, delay, and
# straggler plan must recover to bit-identical hits without hanging.
# (TestResilient* and the other *Resilient* tests drive RunElastic over a
# static membership; the elastic timelines run in chaos-elastic.)
chaos: chaos-serve
	$(GO) test -race -count=1 -run 'Fault|Crash|Detection|Dropped|Straggler|InjectedDelays|Mailbox|Reset|RunAfterAbort|Wait|Resilient|Recovery' \
		./internal/cluster/ ./internal/core/
	$(GO) test -race -count=1 ./internal/ckpt/

# chaos-serve sweeps the streaming-service chaos schedules under the race
# detector: crashes and block rotations mid-stream must lose no in-flight
# query, answer none twice, keep hits bit-identical to the offline batch,
# and replay to byte-identical traces.
chaos-serve:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/serve/

# chaos-elastic sweeps the elastic-membership schedules under the race
# detector: every join/leave timeline (including the 1024-rank-universe
# join->crash->rejoin cycles), admission/departure/release flow, group
# sub-communicators, and jittered RMA retries must converge on hits
# bit-identical to the static run with byte-identical double-run traces.
chaos-elastic:
	$(GO) test -race -count=1 -run 'Elastic|Membership|Admission|Admit|Group|RetryJitter' \
		./internal/cluster/ ./internal/core/
	$(GO) test -race -count=1 ./internal/placement/

# fuzz-short gives every fuzz target a fixed, CI-sized budget. The binary
# codec decoders (checkpoint, core result/batch wire, candidate blocks,
# membership plans, pepd submit/result frames) must never panic and must
# accept only canonical blobs; the text readers (trace JSON, MGF, and the
# FASTA range partition, whose concatenated ranges must parse exactly as
# the whole file) must never panic and must fail with their typed errors.
# The minimize budget is capped so a coverage-expanding input cannot stall
# the run.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test ./internal/ckpt/ -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzReadChrome -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeResults -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeBatch -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzDecodeMembershipPlan -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeSubmit -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeResult -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzUnmarshalCands -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/spectrum/ -run '^$$' -fuzz FuzzParseMGF -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/fasta/ -run '^$$' -fuzz FuzzRanges -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

# cover enforces the checked-in statement-coverage floor
# (.coverage-threshold) over the simulation, observability, recovery,
# serving, binary-codec, and block-index (digest, fragidx) packages.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/cluster/ ./internal/core/ ./internal/trace/ \
		./internal/serve/ ./internal/placement/ ./internal/ckpt/ ./internal/binfmt/ \
		./internal/fragidx/ ./internal/digest/
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	min=$$(cat .coverage-threshold); \
	echo "coverage: $$total% of statements (floor: $$min%)"; \
	awk -v t="$$total" -v m="$$min" 'BEGIN { exit !(t+0 >= m+0) }' \
		|| { echo "coverage $$total% is below the $$min% floor"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json refreshes the checked-in scoring-kernel baseline. Run on a
# quiet machine; compare against git history before committing.
bench-json:
	{ $(GO) test -bench 'BenchmarkScorers' -benchmem -run '^$$' . ; \
	  $(GO) test -bench 'BenchmarkScanKernel|BenchmarkEngineHostTime|BenchmarkElastic' -run '^$$' ./internal/core/ ; \
	  $(GO) test -bench 'BenchmarkMachineScale' -run '^$$' ./internal/cluster/ ; } \
	  | $(GO) run ./cmd/benchjson -o BENCH_kernel.json

# bench-smoke runs every scan-kernel benchmark for a single iteration: no
# timing signal, but it executes the benchmark fixtures end to end (including
# the fragment-index warm-up scans and their zero-alloc expectations), so a
# kernel that panics, diverges, or allocates per candidate fails CI without
# the cost of a timed run.
bench-smoke:
	$(GO) test -bench 'BenchmarkScanKernel' -benchtime 1x -run '^$$' ./internal/core/

# scale-smoke drives the virtual machine at cluster scale: a full 4096-rank
# run (clean and with an injected crash), the hierarchical-vs-flat
# bit-identity property, the hierarchical comm-time win at p ≥ 1024, and a
# single untimed iteration of the 1024-rank machine benchmark. Catches O(p²)
# regressions in the machine internals that the default-sized tests never
# exercise.
scale-smoke:
	$(GO) test -short -count=1 \
		-run 'MachineScale4096|HierarchicalReducesCommTime|HierarchicalCollectivesBitIdentical' \
		./internal/cluster/
	$(GO) test -short -count=1 -run 'AlgoAScale4096' ./internal/core/
	$(GO) test -bench 'BenchmarkMachineScale/p=1024' -benchtime 1x -run '^$$' ./internal/cluster/

# serve-smoke runs the streaming-service golden path under the race
# detector — a seeded load test pinning streaming-equals-offline hits and
# byte-identical double-run traces — plus a short pepd CLI run through the
# client wire codec.
serve-smoke:
	$(GO) test -race -count=1 -run 'StreamingMatchesOffline|DoubleRunTrace|SteadyStateIngestAllocs' ./internal/serve/
	$(GO) run ./cmd/pepid -serve -synth-db 200 -synth-queries 8 -serve-duration 0.25 >/dev/null

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/metagenome
	$(GO) run ./examples/sortedsearch
	$(GO) run ./examples/quality
	$(GO) run ./examples/fdrsearch

# Regenerate every table and figure of the paper (writes to stdout).
experiments:
	$(GO) run ./cmd/paperbench -scale default -exp all

quick-experiments:
	$(GO) run ./cmd/paperbench -scale quick -exp all

clean:
	$(GO) clean ./...
