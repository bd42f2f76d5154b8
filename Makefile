# Tier-1 verification for the mnoc repository (see ROADMAP.md).
# Pure-Go, stdlib-only: no tool downloads, works offline.

GO ?= go

.PHONY: check vet fmt-check lint lint-json build test race fuzz golden golden-check \
	compare-golden compare-check metrics-golden metrics-check \
	sweep-check paper-golden paper-check bench bench-check bench-baseline

# The tier-1 gate: everything below must pass before merging. The two
# golden diffs pin the byte-identity contract locally, not only in CI:
# `mnoc bench` reproduces the committed tables and `mnoc sweep` (the
# bench path on the worker pool) reproduces them too.
check: vet fmt-check lint build test race golden-check sweep-check

vet:
	$(GO) vet ./...

# Fail when gofmt would reformat a package file. Only the files `go
# list` reports (GoFiles, TestGoFiles, XTestGoFiles) are checked, so
# deliberate fixtures under testdata/ stay as they are.
fmt-check:
	@files=$$($(GO) list -f '{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}{{range .TestGoFiles}}{{$$d}}/{{.}} {{end}}{{range .XTestGoFiles}}{{$$d}}/{{.}} {{end}}' ./...) && \
	bad=$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$files) && \
	if [ -n "$$bad" ]; then echo "gofmt -l reports:"; echo "$$bad"; exit 1; fi

# The domain lint suite (cmd/mnoclint, docs/LINT.md): determinism,
# unit-safety, metric-name cardinality, context threading, error
# wrapping, goroutine cancellation, RCU publication and hot-path
# allocation. Pure stdlib, so it runs offline like everything else
# here.
lint:
	$(GO) run ./cmd/mnoclint ./...

# Machine-readable lint run: every finding plus every in-force allow
# directive with its reason, as a JSON array (CI archives it).
lint-json:
	$(GO) run ./cmd/mnoclint -json ./... > mnoclint.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the whole tree: cheap enough now that the
# heavy solves are cached, and it catches races in packages that only
# become concurrent indirectly (e.g. exp entries on the runner pool).
race:
	$(GO) test -race ./...

# Regenerate the golden quick-scale tables: the paper's registry
# tables and the extension tables. Run after an intentional change to
# experiment output and commit the diff.
golden:
	$(GO) run ./cmd/mnoc bench -scale quick > testdata/golden/bench_quick.txt
	$(GO) run ./cmd/mnoc bench -scale quick -exp ext > testdata/golden/bench_quick_ext.txt

# Diff the current quick-scale tables against the checked-in fixtures:
# a deterministic end-to-end check that the single mnoc binary still
# reproduces the paper's tables and the extension tables byte-for-byte.
golden-check:
	$(GO) run ./cmd/mnoc bench -scale quick > /tmp/bench_quick.txt
	diff -u testdata/golden/bench_quick.txt /tmp/bench_quick.txt
	$(GO) run ./cmd/mnoc bench -scale quick -exp ext > /tmp/bench_quick_ext.txt
	diff -u testdata/golden/bench_quick_ext.txt /tmp/bench_quick_ext.txt

# Diff the sweep coordinator's local stdout against the bench golden
# (minus its two header lines): pins the byte-identity contract —
# `mnoc sweep -workers 4`, the bench path on a 4-worker pool, must
# reproduce the single-process `mnoc bench` tables exactly — without
# booting a fleet. TestSweepMatchesSingleProcess and the CI fleet-smoke
# job check the remote (sharded) path against live backends.
sweep-check:
	$(GO) run ./cmd/mnoc sweep -scale quick -workers 4 > /tmp/sweep_quick.txt
	tail -n +3 testdata/golden/bench_quick.txt | diff -u - /tmp/sweep_quick.txt

# Regenerate the paper-scale tables (radix 256, every experiment) that
# EXPERIMENTS.md quotes. Takes minutes, so it stays out of `check`.
paper-golden:
	$(GO) run ./cmd/mnoc bench -scale paper -exp everything > paper_results.txt

# Diff a fresh paper-scale run against paper_results.txt: the
# paper-fidelity counterpart of golden-check (also out of `check`).
paper-check:
	$(GO) run ./cmd/mnoc bench -scale paper -exp everything > /tmp/paper_results.txt
	diff -u paper_results.txt /tmp/paper_results.txt

# Regenerate the golden worst-vs-average loss comparison table.
compare-golden:
	$(GO) run ./cmd/mnoc compare -loss=worst -scale quick > testdata/golden/compare_worstcase.txt

# Diff the worst-vs-average table against the fixture: pins both loss
# accountings (and their ratio) per design kind.
compare-check:
	$(GO) run ./cmd/mnoc compare -loss=worst -scale quick > /tmp/compare_worstcase.txt
	diff -u testdata/golden/compare_worstcase.txt /tmp/compare_worstcase.txt

# Regenerate the golden metric-name lists: the quick-scale bench set
# and the adaptation-loop set (a replay over the committed phase-shift
# trace registers the full adapt.* family eagerly). Run after
# intentionally adding, renaming or removing a metric and commit the
# diff (docs/TELEMETRY.md documents every name).
metrics-golden:
	$(GO) run ./cmd/mnoc bench -scale quick \
		-metrics-out /tmp/mnoc_metrics.json > /dev/null
	$(GO) run ./cmd/metricnames /tmp/mnoc_metrics.json \
		> testdata/golden/metrics_names.txt
	$(GO) run ./cmd/mnoc replay -trace testdata/adapt/phase_shift.trace \
		-metrics-out /tmp/mnoc_adapt_metrics.json > /dev/null
	$(GO) run ./cmd/metricnames /tmp/mnoc_adapt_metrics.json \
		> testdata/golden/metrics_names_adapt.txt

# Diff the metric names a quick-scale run (and an adaptation replay)
# registers against the checked-in lists: a rename or a
# silently-dropped instrument fails CI instead of breaking downstream
# dashboards.
metrics-check:
	$(GO) run ./cmd/mnoc bench -scale quick \
		-metrics-out /tmp/mnoc_metrics.json > /dev/null
	$(GO) run ./cmd/metricnames /tmp/mnoc_metrics.json \
		> /tmp/mnoc_metrics_names.txt
	diff -u testdata/golden/metrics_names.txt /tmp/mnoc_metrics_names.txt
	$(GO) run ./cmd/mnoc replay -trace testdata/adapt/phase_shift.trace \
		-metrics-out /tmp/mnoc_adapt_metrics.json > /dev/null
	$(GO) run ./cmd/metricnames /tmp/mnoc_adapt_metrics.json \
		> /tmp/mnoc_adapt_metrics_names.txt
	diff -u testdata/golden/metrics_names_adapt.txt /tmp/mnoc_adapt_metrics_names.txt

# Short seeded fuzz passes over the text-format parsers, the telemetry
# exporters, and the serve handlers (arbitrary bodies on every POST
# endpoint: never a panic or a 5xx, always a JSON body).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDBLinearRoundTrip -fuzztime=10s ./internal/phys
	$(GO) test -run=^$$ -fuzz=FuzzLossTransmissionRoundTrip -fuzztime=10s ./internal/phys
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=10s ./internal/fault
	$(GO) test -run=^$$ -fuzz=FuzzRead -fuzztime=10s ./internal/drivetable
	$(GO) test -run=^$$ -fuzz=FuzzExporters -fuzztime=10s ./internal/telemetry
	$(GO) test -run=^$$ -fuzz=FuzzHandlers -fuzztime=10s ./internal/server

# ---- Performance baseline (docs/BENCH.md) ----------------------------

# The curated hot-path benchmark set tracked in BENCH_baseline.json:
# splitter solve/recurrence, QAP mapping, the dynamic controller's swap
# search, multicore-sim inner loop, power evaluation, trace replay, and
# the serve-path JSON encode and decode.
BENCH_PATTERN = ^(BenchmarkSplitterDesign|BenchmarkQAPTaboo|BenchmarkGreedySwaps|BenchmarkPowerEvaluate|BenchmarkNoCReplay|BenchmarkMulticoreSim|BenchmarkSplitterRecurrenceTyped|BenchmarkSplitterRecurrenceRaw|BenchmarkPowerEvalTyped|BenchmarkPowerEvalRaw|BenchmarkJSONPackageEncoding|BenchmarkWriteJSON|BenchmarkRequestDecode)$$
BENCH_PKGS = . ./internal/phys ./internal/server
BENCH_DATE ?= $(shell date -u +%Y-%m-%d)
BENCH_FILE ?= BENCH_$(BENCH_DATE).json
BENCH_SCALE ?= quick
BENCHTIME ?= 1s

# Measure the curated set and emit the machine-readable BENCH_<date>.json
# (schema: internal/benchjson, docs/BENCH.md).
bench:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem \
		-benchtime=$(BENCHTIME) $(BENCH_PKGS) | tee /tmp/mnoc_bench_raw.txt
	$(GO) run ./cmd/benchjson emit -in /tmp/mnoc_bench_raw.txt \
		-out $(BENCH_FILE) -scale $(BENCH_SCALE) -date $(BENCH_DATE)

# Compare the freshly measured BENCH_<date>.json against the committed
# baseline: exits non-zero on >15% ns/op growth, any allocs/op growth,
# or a baseline benchmark that disappeared. Run `make bench` first (CI
# runs `make bench bench-check`).
bench-check:
	$(GO) run ./cmd/benchjson check \
		-baseline BENCH_baseline.json -current $(BENCH_FILE)

# Refresh the committed baseline after an intentional perf change and
# commit the diff (the review then shows exactly what got slower or
# faster, per benchmark).
bench-baseline: bench
	cp $(BENCH_FILE) BENCH_baseline.json
