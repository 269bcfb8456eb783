# Development entry points for the FLARE reproduction. `make check` is
# the tier-1 gate (vet + lint + build + tests); `make race` adds the race
# detector over the concurrency-sensitive packages and the full tree;
# `make bench-stages` records diffable per-stage pipeline timings;
# `make coverage` enforces the COVERAGE_FLOOR CI also gates on;
# `make results-check` proves results/ matches a fresh regeneration.

GO ?= go

# Minimum total statement coverage (percent) `make coverage` and the CI
# coverage job accept. Raise it as tests accrete; never lower it to make
# a PR pass.
COVERAGE_FLOOR = 70

# Exact third-party analyzer versions. CI installs these via
# `make lint-tools`; pinning keeps lint results reproducible instead of
# drifting with whatever @latest resolves to on a given day.
STATICCHECK_VERSION = 2025.1.1
GOVULNCHECK_VERSION = v1.1.4

.PHONY: all check vet lint lint-tools flarelint fix build test race coverage results-check bench bench-stages profile-cpu fmt clean loadgen-smoke impact flaky-hunt loc

all: check

check: vet lint flarelint build test

vet:
	$(GO) vet ./...

# Format + static analysis gate. staticcheck and govulncheck run when
# installed (CI installs the pinned versions via lint-tools; local
# sandboxes without them still get the gofmt check instead of a hard
# failure).
lint:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -w needed on:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed; skipping"; fi

# Install the pinned third-party analyzers (network required; CI only).
lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# FLARE's own invariant analyzers (internal/lint, stdlib-only):
# metricname, spanend, and the summary-driven ctxflow. Builds from
# tools/flarelint's module so the main module keeps an empty require
# block. Every finding fails: there is no baseline and no suppression
# directive (see DESIGN.md "Static analysis & enforced invariants").
# Also writes the SARIF log CI uploads to code scanning.
flarelint:
	cd tools/flarelint && $(GO) build -o ../../bin/flarelint .
	@mkdir -p results
	./bin/flarelint -sarif results/flarelint.sarif ./...

# Mechanical cleanup pass: gofmt everything, then report remaining vet
# and flarelint diagnostics (flarelint findings also land in
# results/flarelint.json for tooling). Fixes formatting automatically;
# semantic findings still need a human.
fix:
	gofmt -w $$(git ls-files '*.go')
	$(GO) vet ./...
	cd tools/flarelint && $(GO) build -o ../../bin/flarelint .
	@mkdir -p results
	./bin/flarelint -json ./... > results/flarelint.json || \
	{ echo "fix: flarelint findings remain (see results/flarelint.json)"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Coverage gate: the full-tree profile must stay at or above
# COVERAGE_FLOOR percent of statements.
coverage:
	@mkdir -p results
	$(GO) test -coverprofile=results/coverage.out -covermode=atomic ./...
	@total=$$($(GO) tool cover -func=results/coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total statement coverage: $$total% (floor: $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	{ echo "coverage below floor"; exit 1; }

# Race-detector pass. The obs registry/tracer and the server's
# singleflight cache are the concurrency hot spots; the full ./... run
# keeps everything else honest too.
race:
	$(GO) test -race ./...

# Reproducibility gate: regenerate every paper table/figure into a
# temp dir and require each file the generator writes to equal its
# committed copy under results/. Files it does not write
# (BENCH_stages.json, bench-stages*.txt, the flaky baseline) are
# not compared. Regeneration is deterministic, so any difference means
# results/ is stale: rerun flare-experiments into results/ and commit.
results-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/flare-experiments -out "$$tmp" -days 28 >/dev/null || exit 1; \
	n=0; bad=0; \
	for f in "$$tmp"/*; do \
		n=$$((n+1)); b=$$(basename "$$f"); \
		diff -u "results/$$b" "$$f" >"$$tmp.diff" 2>&1 || { \
			bad=$$((bad+1)); echo "results-check: results/$$b differs:"; head -20 "$$tmp.diff"; }; \
	done; rm -f "$$tmp.diff"; \
	if [ $$n -eq 0 ]; then echo "results-check: generator wrote nothing"; exit 1; fi; \
	if [ $$bad -ne 0 ]; then \
		echo "results-check: $$bad of $$n files stale; regenerate with" \
			"go run ./cmd/flare-experiments -out results -days 28"; exit 1; fi; \
	echo "results-check: all $$n generated files match results/"

# Full experiment benchmark suite (regenerates every paper table).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Per-stage pipeline timings plus the metrics.Vector.Get, perfmodel
# evaluation (solo, full machine, noisy sample, and one noisy full vs
# MIPS-only materialisation), one perfscore replayed representative, one
# cold all-job, one cold per-job and one hot /api/estimate, the first
# estimate after a rebuild that
# leaves every representative to relax, metricdb's retained heap per row
# (B/row) for the dataset and estimates schemas, one cold and one
# warm-started PCA moment update, the incremental analyzer's re-measure
# and append ticks (each with its Jacobi sweeps/op), durable-store (append,
# scan, and a fsynced paper-scale PersistDataset), and cluster (WAL-shipping, 3-node
# batch fan-out, run by time) micro-benchmarks, recorded under results/
# so successive runs can be diffed (benchstat or plain diff) to catch
# stage-level regressions.
# The same run is also rendered to machine-readable JSON (stage name ->
# ns/op) for tooling.
bench-stages:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineStages' -benchtime 3x . \
		| tee results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'BenchmarkVectorGet' ./internal/metrics \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'Benchmark(Evaluate(Solo|FullMachine|WithNoise)|ResultInto|MIPSInto)$$' -benchmem ./internal/perfmodel \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'BenchmarkScoreReplay$$' -benchmem ./internal/perfscore \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'BenchmarkEstimate(Cold|PerJobCold|Hot)$$' -benchmem ./internal/server \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'BenchmarkEstimateAfterTick$$' -benchtime 200x -benchmem ./internal/server \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTableRowHeap' -benchtime 5x ./internal/metricdb \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'Benchmark(Store(Append|Scan)|PersistDataset)$$' . \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'BenchmarkEventLog' ./internal/obs \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'BenchmarkRequestTelemetry' ./internal/server \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'BenchmarkProfiler(Collect|Tick)$$' -benchtime 10x ./internal/profiler \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'BenchmarkPCAUpdate(Warm)?$$' ./internal/pca \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'BenchmarkIncrementalTick$$' -benchtime 100x -benchmem ./internal/analyzer \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'BenchmarkWALShip$$' ./internal/cluster \
		| tee -a results/bench-stages.txt
	$(GO) test -run '^$$' -bench 'BenchmarkClusterBatchEstimate$$' ./internal/server \
		| tee -a results/bench-stages.txt
	$(GO) run ./cmd/flare-impact -bench-parse -in results/bench-stages.txt \
		-out results/BENCH_stages.json

# Non-test Go line delta of the working tree against a base ref: added,
# removed and net lines over *.go, excluding *_test.go and testdata/.
# Usage: make loc BASE=<ref> (default HEAD: the uncommitted change).
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- '*.go' ':!*_test.go' ':!*testdata/*' | \
	awk '{a += $$1; r += $$2} END {printf "loc: +%d -%d net %+d non-test Go lines vs %s\n", a, r, a - r, "$(BASE)"}'

# Load-driven resilience proof: boot flare-server against a populated
# store with faults armed, drive it with two identically-seeded
# flare-loadgen runs, and require byte-identical schedules plus an exact
# client/server counter crosscheck with shed/timeout/degraded activity.
# CI runs the same script in the loadgen-smoke job.
loadgen-smoke:
	sh tools/ci/loadgen_smoke.sh

# Two-tree impact verdict of the working tree against a base tree.
# Usage: make impact IMPACT_BASE=/path/to/base-checkout
impact:
	$(GO) run ./cmd/flare-impact -base $(IMPACT_BASE) -head . \
		-reruns 2 -out results/impact.json

# Repeated-run flaky hunt over the whole tree, judged against the
# committed known-flaky baseline (nightly in CI). The `go test` exit
# code is ignored on purpose: failures are the detector's input, and
# flare-impact fails the target only on NEWLY flaky tests.
FLAKY_COUNT ?= 5
flaky-hunt:
	@mkdir -p results
	$(GO) test -count=$(FLAKY_COUNT) -json ./... > results/flaky-stream.json || true
	$(GO) run ./cmd/flare-impact -flaky-stream -in results/flaky-stream.json \
		-flaky-baseline results/flaky-baseline.json -out results/flaky-report.json

# CPU profile of the pipeline-stage benchmark (the profiler/analyzer hot
# path). Prints the top inclusive entries and leaves results/cpu.pprof
# for interactive inspection with `go tool pprof results/cpu.pprof`.
profile-cpu:
	@mkdir -p results
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineStages' -benchtime 3x \
		-cpuprofile results/cpu.pprof -o results/bench.test .
	$(GO) tool pprof -top -nodecount 20 results/bench.test results/cpu.pprof

fmt:
	gofmt -w $$(git ls-files '*.go')

clean:
	$(GO) clean ./...
