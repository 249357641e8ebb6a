# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short bench bench-test bench-gate figures figures-quick telemetry-smoke monitor-smoke conflict-smoke serve-smoke journeys-smoke ledger-smoke health-smoke rundiff-smoke watch-smoke fuzz cover clean

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

# End-to-end check of the observability stack: run a short scenario with
# metric + event dumps and assert the outputs are non-empty and parseable.
telemetry-smoke:
	$(GO) run ./cmd/rtmacsim -protocol dbdp -intervals 200 \
		-telemetry /tmp/rtmac-metrics.prom -events /tmp/rtmac-events.jsonl >/dev/null
	test -s /tmp/rtmac-metrics.prom
	test -s /tmp/rtmac-metrics.prom.manifest.json
	test -s /tmp/rtmac-events.jsonl
	grep -q '^rtmac_tx_total ' /tmp/rtmac-metrics.prom
	$(GO) run ./cmd/rtmacsim -checkevents /tmp/rtmac-events.jsonl

# End-to-end check of the runtime invariant monitor: a short DB-DP run under
# the strict monitor must finish with zero violations, the Perfetto trace
# must parse, the flight-recorder dump must be present and pass the same
# offline audit the live run passed.
monitor-smoke:
	$(GO) run ./cmd/rtmacsim -protocol dbdp -intervals 300 \
		-monitor -strict \
		-perfetto /tmp/rtmac-trace.json \
		-flightrecorder /tmp/rtmac-flight.jsonl \
		-events /tmp/rtmac-monitor-events.jsonl
	$(GO) run ./cmd/rtmacsim -checkperfetto /tmp/rtmac-trace.json
	$(GO) run ./cmd/rtmacsim -checkevents /tmp/rtmac-monitor-events.jsonl
	$(GO) run ./cmd/rtmacsim -checkevents /tmp/rtmac-flight.jsonl
	test -s /tmp/rtmac-flight.jsonl.txt

# End-to-end check of the conflict-graph medium: the two-clique spatial-reuse
# scenario must run invariant-clean under the strict monitor, both the full
# event stream and the flight-recorder dump must pass the offline audit
# (which re-infers the conflict graph from the pinned conflict events), and
# the run must actually reuse the channel — aggregate data airtime above one
# interval's budget with zero collisions.
conflict-smoke:
	$(GO) run ./cmd/rtmacsim -config scenarios/spatial.json \
		-monitor -strict \
		-flightrecorder /tmp/rtmac-conflict-flight.jsonl \
		-events /tmp/rtmac-conflict-events.jsonl | tee /tmp/rtmac-conflict.out
	grep -q '^conflicts(10 links, 20 edges)' /tmp/rtmac-conflict.out
	grep -q 'no invariant violations' /tmp/rtmac-conflict.out
	grep -q ', 0 collided,' /tmp/rtmac-conflict.out
	grep -Eq '^airtime: 1[0-9][0-9]\.[0-9]% data' /tmp/rtmac-conflict.out
	$(GO) run ./cmd/rtmacsim -checkevents /tmp/rtmac-conflict-events.jsonl
	$(GO) run ./cmd/rtmacsim -checkevents /tmp/rtmac-conflict-flight.jsonl
	test -s /tmp/rtmac-conflict-flight.jsonl.txt

# End-to-end check of the live HTTP observability plane: start a -serve run
# in the background, curl every endpoint, validate the scrape with the
# exposition validator, then shut the server down with SIGTERM and require a
# clean exit.
serve-smoke:
	$(GO) build -o /tmp/rtmacsim-smoke ./cmd/rtmacsim
	/tmp/rtmacsim-smoke -protocol dbdp -intervals 2000 \
		-serve 127.0.0.1:19880 >/tmp/rtmac-serve.out 2>&1 & echo $$! > /tmp/rtmac-serve.pid
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:19880/healthz >/dev/null 2>&1 && break; sleep 0.2; done
	curl -fsS http://127.0.0.1:19880/healthz | grep -q ok
	curl -fsS http://127.0.0.1:19880/metrics > /tmp/rtmac-serve-metrics.prom
	curl -fsS http://127.0.0.1:19880/api/progress | grep -q '"planned_intervals": 2000'
	curl -fsS http://127.0.0.1:19880/ | grep -qi '<html'
	/tmp/rtmacsim-smoke -checkmetrics /tmp/rtmac-serve-metrics.prom
	kill -TERM $$(cat /tmp/rtmac-serve.pid)
	for i in $$(seq 1 50); do \
		kill -0 $$(cat /tmp/rtmac-serve.pid) 2>/dev/null || break; sleep 0.2; done
	! kill -0 $$(cat /tmp/rtmac-serve.pid) 2>/dev/null
	grep -q 'run complete' /tmp/rtmac-serve.out

# End-to-end check of the packet-journey tracer: record every packet of a
# short DB-DP run, require the dump to be non-empty, structurally validate
# every span with tracequery -check, and require the summary to account for
# at least one journey.
journeys-smoke:
	$(GO) run ./cmd/rtmacsim -protocol dbdp -intervals 300 \
		-journeys /tmp/rtmac-journeys.jsonl >/dev/null
	test -s /tmp/rtmac-journeys.jsonl
	$(GO) run ./cmd/tracequery -check /tmp/rtmac-journeys.jsonl
	$(GO) run ./cmd/tracequery -by-link /tmp/rtmac-journeys.jsonl | grep -q '^ *all'

# End-to-end check of the run ledger and regression sentinel. Two seeds are
# recorded as two separate processes plus one combined two-seed run, the
# per-seed records are merged with ledgerctl, and `ledgerctl equal` requires
# the merge to carry byte-identical statistics versus the combined run — the
# ledger's core fidelity promise. The combined-vs-merged diff must exit 0
# (they are the same statistics), and a deliberately degraded rtmacsim run
# (-p 0.45 against a 0.7 baseline) must trip the sentinel non-zero.
ledger-smoke:
	rm -rf /tmp/rtmac-ledger
	$(GO) run ./cmd/figures -fig fig3 -scale 0.02 -quiet -seedlist 101 -ledger /tmp/rtmac-ledger >/dev/null
	$(GO) run ./cmd/figures -fig fig3 -scale 0.02 -quiet -seedlist 202 -ledger /tmp/rtmac-ledger >/dev/null
	$(GO) run ./cmd/figures -fig fig3 -scale 0.02 -quiet -seedlist 101,202 -ledger /tmp/rtmac-ledger >/dev/null
	$(GO) run ./cmd/ledgerctl -dir /tmp/rtmac-ledger list
	$(GO) run ./cmd/ledgerctl -dir /tmp/rtmac-ledger merge latest~2 latest~1
	$(GO) run ./cmd/ledgerctl -dir /tmp/rtmac-ledger equal latest latest~1
	$(GO) run ./cmd/ledgerctl -dir /tmp/rtmac-ledger diff latest~1 latest
	$(GO) run ./cmd/rtmacsim -protocol dbdp -intervals 1000 -seed 7 -ledger /tmp/rtmac-ledger >/dev/null
	$(GO) run ./cmd/rtmacsim -protocol dbdp -intervals 1000 -seed 7 -p 0.45 -ledger /tmp/rtmac-ledger >/dev/null
	! $(GO) run ./cmd/ledgerctl -dir /tmp/rtmac-ledger diff latest~1 latest

# End-to-end check of the runtime health plane: run a served simulation with
# the collector, slot-budget watchdog, and continuous profile ring all live;
# require /api/health to serve a structurally valid document that reports the
# plane enabled; then shut down cleanly and require the ring to hold at least
# one CPU profile that `go tool pprof -raw` can parse.
health-smoke:
	rm -rf /tmp/rtmac-ring
	$(GO) build -o /tmp/rtmacsim-health ./cmd/rtmacsim
	/tmp/rtmacsim-health -protocol dbdp -intervals 3000 \
		-serve 127.0.0.1:19881 -health -profilering /tmp/rtmac-ring \
		>/tmp/rtmac-health.out 2>&1 & echo $$! > /tmp/rtmac-health.pid
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:19881/healthz >/dev/null 2>&1 && break; sleep 0.2; done
	for i in $$(seq 1 100); do \
		grep -q '"type":"cpu"' /tmp/rtmac-ring/manifest.jsonl 2>/dev/null && break; sleep 0.2; done
	curl -fsS http://127.0.0.1:19881/api/health > /tmp/rtmac-health.json
	/tmp/rtmacsim-health -checkhealth /tmp/rtmac-health.json
	grep -Eq '"enabled": ?true' /tmp/rtmac-health.json
	kill -TERM $$(cat /tmp/rtmac-health.pid)
	for i in $$(seq 1 50); do \
		kill -0 $$(cat /tmp/rtmac-health.pid) 2>/dev/null || break; sleep 0.2; done
	! kill -0 $$(cat /tmp/rtmac-health.pid) 2>/dev/null
	grep -q '"type":"cpu"' /tmp/rtmac-ring/manifest.jsonl
	$(GO) tool pprof -raw $$(ls /tmp/rtmac-ring/cpu-*.pprof | head -1) > /dev/null
	grep -q 'health:' /tmp/rtmac-health.out

# End-to-end check of the differential run explainer. Two identical-seed runs
# must compare byte-equal (exit 0); a third run with one extra arrival
# injected at interval 123 must diverge (exit 1) with the first-divergence
# pointer landing exactly on the perturbed interval, for both the event
# stream and the journey key-join. Exit 2 (usage/IO) fails the target.
rundiff-smoke:
	rm -rf /tmp/rtmac-rundiff && mkdir -p /tmp/rtmac-rundiff
	$(GO) build -o /tmp/rtmacsim-rundiff ./cmd/rtmacsim
	$(GO) build -o /tmp/rundiff-smoke ./cmd/rundiff
	/tmp/rtmacsim-rundiff -protocol dbdp -intervals 400 -seed 7 \
		-record-for-diff /tmp/rtmac-rundiff/a >/dev/null
	/tmp/rtmacsim-rundiff -protocol dbdp -intervals 400 -seed 7 \
		-record-for-diff /tmp/rtmac-rundiff/b >/dev/null
	/tmp/rundiff-smoke -check-equal /tmp/rtmac-rundiff/a.events.jsonl /tmp/rtmac-rundiff/b.events.jsonl
	/tmp/rundiff-smoke -check-equal /tmp/rtmac-rundiff/a.journeys.jsonl /tmp/rtmac-rundiff/b.journeys.jsonl
	/tmp/rtmacsim-rundiff -protocol dbdp -intervals 400 -seed 7 \
		-record-for-diff /tmp/rtmac-rundiff/p -perturb-interval 123 -perturb-link 2 >/dev/null
	/tmp/rundiff-smoke /tmp/rtmac-rundiff/a.events.jsonl /tmp/rtmac-rundiff/p.events.jsonl \
		> /tmp/rtmac-rundiff/events.txt; test $$? -eq 1
	grep -q 'k=123 ' /tmp/rtmac-rundiff/events.txt
	/tmp/rundiff-smoke /tmp/rtmac-rundiff/a.journeys.jsonl /tmp/rtmac-rundiff/p.journeys.jsonl \
		> /tmp/rtmac-rundiff/journeys.txt; test $$? -eq 1
	grep -q 'delivery ratio' /tmp/rtmac-rundiff/journeys.txt

# End-to-end check of the SLO conformance plane. The feasible factory
# scenario must run -watch clean (zero alerts), feascheck -json must agree it
# is feasible and emit the requirement vector, and rtmacwatch must audit the
# recorded stream clean against those targets (exit 0). A replay of the same
# scenario with an injected arrival burst must raise an alert (exit 1
# exactly — 2 would be a tool failure) and leave a non-empty alert artifact
# containing the expiry spike.
watch-smoke:
	$(GO) run ./cmd/rtmacsim -config scenarios/factory.json -watch \
		-events /tmp/rtmac-watch-events.jsonl | tee /tmp/rtmac-watch.out
	grep -q 'no SLO alerts' /tmp/rtmac-watch.out
	$(GO) run ./cmd/feascheck -config scenarios/factory.json -json > /tmp/rtmac-watch-slo.json
	grep -q '"feasible": true' /tmp/rtmac-watch-slo.json
	$(GO) run ./cmd/rtmacwatch -check -slo /tmp/rtmac-watch-slo.json /tmp/rtmac-watch-events.jsonl
	$(GO) run ./cmd/rtmacsim -config scenarios/factory.json -watch \
		-perturb-interval 600 -perturb-link 0 -perturb-extra 40 \
		-events /tmp/rtmac-watch-perturbed.jsonl | tee /tmp/rtmac-watch-perturbed.out
	grep -q 'expiry_spike' /tmp/rtmac-watch-perturbed.out
	$(GO) run ./cmd/rtmacwatch -check -alerts /tmp/rtmac-watch-alerts.jsonl \
		-scenario scenarios/factory.json /tmp/rtmac-watch-perturbed.jsonl \
		> /tmp/rtmac-watch-verdict.out; test $$? -eq 1
	test -s /tmp/rtmac-watch-alerts.jsonl
	grep -q 'expiry_spike' /tmp/rtmac-watch-alerts.jsonl

fuzz:
	$(GO) test -fuzz=FuzzLoad -fuzztime=30s ./scenario
	$(GO) test -fuzz=FuzzDecodeSLO -fuzztime=30s ./scenario
	$(GO) test -fuzz=FuzzDecodeTopology -fuzztime=30s ./scenario
	$(GO) test -fuzz=FuzzRankUnrank -fuzztime=30s ./internal/perm
	$(GO) test -fuzz=FuzzAdjacentSwapCodec -fuzztime=30s ./internal/perm
	$(GO) test -fuzz=FuzzValidatePrometheus -fuzztime=30s ./internal/telemetry
	$(GO) test -fuzz=FuzzDecodeEvents -fuzztime=30s ./internal/telemetry
	$(GO) test -fuzz=FuzzAppendJSON -fuzztime=30s ./internal/telemetry
	$(GO) test -fuzz=FuzzAppendJourneyJSON -fuzztime=30s ./internal/journey
	$(GO) test -fuzz=FuzzContentionGraph -fuzztime=30s -fuzzminimizetime=2s ./internal/mac
	$(GO) test -fuzz=FuzzMediumLinkTransitions -fuzztime=30s -fuzzminimizetime=2s ./internal/medium

cover:
	$(GO) test -cover ./...

clean:
	rm -rf results
