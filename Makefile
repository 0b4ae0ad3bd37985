# Standard workflows for the memexplore reproduction.

GO ?= go

.PHONY: all build vet test short bench bench-sweep bench-trace bench-ingest bench-search bench-guard benchsuite-check figs exhibits exhibits-check fuzz cover clean check serve loc

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Tier-1 plus the race-sensitive packages (the service, the async job
# subsystem, the context-aware exploration core, the pooled sweep
# engines and the guided search) under the race detector, plus short
# fuzz passes over the external-trace parsers, the sweep engine against
# its reference model, the genome repair, the kernel parser and the
# trace generator against its checked evaluator (the same targets as
# CI's fuzz smoke),
# plus the benchmark suite's own module, plus the paper exhibits against
# their committed record.
check: build vet test benchsuite-check exhibits-check
	$(GO) test -race ./internal/service ./internal/jobs ./internal/core ./internal/cachesim ./internal/extrace ./internal/search
	$(GO) test ./internal/extrace -run '^$$' -fuzz FuzzParseDin -fuzztime 5s
	$(GO) test ./internal/extrace -run '^$$' -fuzz FuzzParseBinaryV2 -fuzztime 5s
	$(GO) test ./internal/extrace -run '^$$' -fuzz FuzzParseIndexFooter -fuzztime 5s
	$(GO) test ./internal/extrace -run '^$$' -fuzz FuzzTrustedIngestStats -fuzztime 5s
	$(GO) test ./internal/cachesim -run '^$$' -fuzz FuzzPerSetStacks -fuzztime 5s
	$(GO) test ./internal/cachesim -run '^$$' -fuzz FuzzSweepMatchesReferenceModel -fuzztime 5s
	$(GO) test ./internal/search -run '^$$' -fuzz FuzzGenome -fuzztime 5s
	$(GO) test ./internal/loopir -run '^$$' -fuzz 'FuzzParse$$' -fuzztime 5s
	$(GO) test ./internal/loopir -run '^$$' -fuzz FuzzGenerate -fuzztime 5s

# The benchmark suite is a nested module (benchsuite/go.mod) that
# compiles against the service, trace-reader and core APIs; root
# `go test ./...` never builds it, so an API change that breaks the
# benchmark surfaces here.
benchsuite-check:
	cd benchsuite && $(GO) vet ./... && $(GO) test ./...

# Run the memexplored HTTP service (see docs/SERVICE.md).
serve:
	$(GO) run ./cmd/memexplored

short:
	$(GO) test -short ./...

# One testing.B target per paper table/figure plus the ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# The sweep-engine comparison (per-point vs FIFO fallback caches vs LRU
# stack levels vs stack levels at 4 workers, then one workload group
# sequential vs split in time ranges, and the group's fallback caches
# sequential vs their pass-unit fan-out), then kernel trace generation;
# the raw runs land in BENCH_sweep.out for curation into
# BENCH_sweep.json.
bench-sweep:
	$(GO) test -run '^$$' -bench BenchmarkExploreSweep -benchmem -count 5 . | tee BENCH_sweep.out
	$(GO) test -run '^$$' -bench BenchmarkGenerate -benchmem -count 5 ./internal/loopir | tee -a BENCH_sweep.out

# The external-trace ingestion pipeline: din text → streaming sweep at
# workers = 1 / 2 / NumCPU, plus the billion-record levers (columnar mxt
# v2 decode, SHARDS sampling at R=0.01) against the exact din baseline;
# the raw runs land in BENCH_trace.out for curation into BENCH_trace.json.
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkExploreDinTrace|BenchmarkExploreTraceSampled' -benchmem -count 5 . | tee BENCH_trace.out

# The ingestion levers in isolation: decode of an on-disk mxt v2
# artifact as a file (trusted footer) and as a stream (accumulator), the
# din-to-v2 transcode, and index-guided chunk skipping vs full decode at
# R=0.01; appends to BENCH_trace.out for curation into BENCH_trace.json.
bench-ingest:
	$(GO) test -run '^$$' -bench BenchmarkIngest -benchmem -count 5 . | tee -a BENCH_trace.out

# Guided search vs exhaustive sweep at matched budgets on an enlarged
# configuration space; the raw runs land in BENCH_search.out for
# curation into BENCH_search.json.
bench-search:
	$(GO) test -run '^$$' -bench BenchmarkSearch -benchmem -count 3 . | tee BENCH_search.out

# CI smoke: one iteration of the sweep benchmark on a vet-clean build —
# catches engine regressions without paying full benchmark time.
bench-guard: build vet
	$(GO) test -run '^$$' -bench BenchmarkExploreSweep -benchtime 1x .

# Regenerate every exhibit with REPRODUCED/DIVERGED checks.
figs:
	$(GO) run ./cmd/paperfigs

# Refresh the committed exhibit record under docs/exhibits/.
exhibits:
	$(GO) run ./cmd/paperfigs -out docs/exhibits > /dev/null

# Regenerate every exhibit into a temporary directory and diff it against
# the committed record, so a model change cannot silently move a paper
# figure; paperfigs itself fails on any [DIVERGED] finding.
exhibits-check:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) run ./cmd/paperfigs -out "$$tmp" > /dev/null && \
		diff -r "$$tmp" docs/exhibits

# Short fuzz passes over the parsers.
fuzz:
	$(GO) test ./internal/loopir -fuzz 'FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/loopir -fuzz FuzzParseExpr -fuzztime 30s
	$(GO) test ./internal/loopir -fuzz FuzzGenerate -fuzztime 30s
	$(GO) test ./internal/extrace -fuzz FuzzParseDin -fuzztime 30s
	$(GO) test ./internal/extrace -fuzz FuzzParseBinaryV2 -fuzztime 30s
	$(GO) test ./internal/extrace -fuzz FuzzParseIndexFooter -fuzztime 30s
	$(GO) test ./internal/extrace -fuzz FuzzTrustedIngestStats -fuzztime 30s
	$(GO) test ./internal/cachesim -fuzz FuzzPerSetStacks -fuzztime 30s
	$(GO) test ./internal/cachesim -fuzz FuzzSweepMatchesReferenceModel -fuzztime 30s
	$(GO) test ./internal/search -fuzz FuzzGenome -fuzztime 30s

cover:
	$(GO) test -cover ./...

# Go line counts of the root module, benchsuite/ and build outputs
# excluded: non-test and test lines, the two figures each change records.
loc:
	@printf 'non-test %s\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchsuite/*' ! -path './.bench_build/*' | xargs cat | wc -l)"
	@printf 'test     %s\n' "$$(find . -name '*_test.go' ! -path './benchsuite/*' ! -path './.bench_build/*' | xargs cat | wc -l)"

clean:
	$(GO) clean ./...
