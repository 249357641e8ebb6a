# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short bench bench-test bench-gate figures figures-quick fuzz cover size clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The host-time benchmark's own tests (bench/ is a separate module): every
# workload at 1% length must reproduce its pinned digest, which pins the
# event and journey streams byte for byte.
bench-test:
	$(GO) -C bench test ./...

# Performance regression gate: run bench/ on the parent commit (HEAD^1) and
# on this tree, alternating on this host, and fail when the median of any
# end-to-end metric on any workload is worse than its bound in
# BENCHMARK.json, or when any rep fails a check. Needs jq. To gate
# uncommitted work against the last commit, run
# `scripts/bench-gate.sh HEAD` instead. CI runs this on every push.
bench-gate:
	bash scripts/bench-gate.sh HEAD^1

# Regenerate every figure of the paper at full fidelity (plus CSVs).
figures:
	$(GO) run ./cmd/figures -csv results -extended

# A quick low-fidelity pass over all figures (~seconds).
figures-quick:
	$(GO) run ./cmd/figures -scale 0.05 -seeds 1 -quiet

fuzz:
	$(GO) test -fuzz=FuzzLoad -fuzztime=30s ./scenario
	$(GO) test -fuzz=FuzzDecodeSLO -fuzztime=30s ./scenario
	$(GO) test -fuzz=FuzzDecodeTopology -fuzztime=30s ./scenario
	$(GO) test -fuzz=FuzzRankUnrank -fuzztime=30s ./internal/perm
	$(GO) test -fuzz=FuzzAdjacentSwapCodec -fuzztime=30s ./internal/perm
	$(GO) test -fuzz=FuzzValidatePrometheus -fuzztime=30s ./internal/telemetry
	$(GO) test -fuzz=FuzzDecodeEvents -fuzztime=30s ./internal/telemetry
	$(GO) test -fuzz=FuzzAppendJSON -fuzztime=30s ./internal/telemetry
	$(GO) test -fuzz=FuzzJSONLFieldOrder -fuzztime=30s ./internal/telemetry
	$(GO) test -fuzz=FuzzAppendJourneyJSON -fuzztime=30s ./internal/journey
	$(GO) test -fuzz=FuzzLedgerRecord -fuzztime=30s ./internal/ledger
	$(GO) test -fuzz=FuzzContentionGraph -fuzztime=30s -fuzzminimizetime=2s ./internal/mac
	$(GO) test -fuzz=FuzzMediumLinkTransitions -fuzztime=30s -fuzzminimizetime=2s ./internal/medium
	$(GO) test -fuzz=FuzzConfig -fuzztime=30s .

cover:
	$(GO) test -cover ./...

# Codebase size: Go lines outside bench/ (a separate module), split into
# non-test and test code, the number of command-line flags the commands
# under cmd/ define, and the public API size of the root package (the lines
# `go doc -short .` prints, one per exported declaration). CI prints it on
# every push.
GO_SOURCES = find . \( -path ./bench -o -name '.?*' \) -prune -o -name '*.go'
FLAG_DEFS = \b(fs|flag)\.(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration|Func|BoolFunc|TextVar|Var|BoolVar|IntVar|Int64Var|UintVar|Uint64Var|Float64Var|StringVar|DurationVar)\(
size:
	@echo "non-test Go lines: $$($(GO_SOURCES) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test Go lines:     $$($(GO_SOURCES) -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "CLI flags:         $$(find cmd -name '*.go' ! -name '*_test.go' | xargs grep -hoE '$(FLAG_DEFS)' | wc -l)"
	@echo "public API:        $$($(GO) doc -short . | wc -l)"

clean:
	rm -rf results
