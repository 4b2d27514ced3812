GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet test race bench tables metrics trace explain benchdiff profile stream soak fuzz chaos syncmon flight alerts examples coverage clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

tables:
	$(GO) run ./cmd/benchtab -table all

# Machine-readable benchmark report (schema causet-benchtab/1) on stdout.
metrics:
	$(GO) run ./cmd/benchtab -json - -trials 100 -reps 5

# Chrome trace_event demo: generate a ring trace, evaluate the all-pairs
# matrix on the batch engine, and leave the span trace in trace_spans.json
# (open in Perfetto or about://tracing).
trace:
	$(GO) run ./cmd/tracegen -pattern ring -procs 8 -rounds 5 -o trace_ring.json
	$(GO) run ./cmd/relcheck -trace trace_ring.json -matrix -parallel 4 -trace-out trace_spans.json -metrics -
	@echo "spans written to trace_spans.json"

# Verdict-explanation demo: generate a ring trace, then explain every
# relation between two rounds — witness cuts, decisive node checks, and the
# message-hop critical path — with the evidence also emitted as Chrome
# trace_event flow arrows in explain_flows.json.
explain:
	$(GO) run ./cmd/tracegen -pattern ring -procs 4 -rounds 3 -o trace_ring.json
	$(GO) run ./cmd/relcheck -trace trace_ring.json -x ring-round-0 -y ring-round-1 -explain -trace-out explain_flows.json
	@echo "flow events written to explain_flows.json (open in Perfetto)"

# Perf-regression gate: run a fresh small benchtab sweep and diff it against
# the committed BENCH_e1.json baseline (exit 1 past the threshold — the same
# check CI runs).
benchdiff:
	$(GO) run ./cmd/benchtab -json benchtab_new.json -trials 100 -reps 3
	$(GO) run ./cmd/benchdiff -threshold 25 BENCH_e1.json benchtab_new.json

# Fused-kernel profiling workflow: run the e10 sweep under the CPU and heap
# profilers, then inspect with `go tool pprof cpu.pprof` / `mem.pprof`.
profile:
	$(GO) run ./cmd/benchtab -table e10 -reps 3 -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "profiles written: cpu.pprof mem.pprof (inspect with 'go tool pprof <file>')"

# Streaming-throughput sweep (E14): the online monitor loop vs a cold
# recompute of the prefix at every settlement, plus the differential suite
# that checks the online verdicts and clocks against the offline monitor.
stream:
	$(GO) test -run 'TestIncrementalSnapshotAgreement|TestStreamAllocsPerEvent' ./internal/online
	$(GO) run ./cmd/benchtab -table e14 -reps 5

# Long-horizon soak (E15): stream 100k events through the retention-
# enabled online monitor asserting bounded heap and verdict agreement, the
# unretained monitor asserting flat ns/event, and the E15 soak shape
# asserting at most 300 B allocated per appended event (the CI smoke), then
# print the full soak table up to 1M events.
soak:
	$(GO) test -run 'TestSoakBoundedHeap|TestSoakSettlementCostFlat|TestSoakAllocBytesPerEvent' -v ./internal/bench
	$(GO) run ./cmd/benchtab -table e15

fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/monitor/
	$(GO) test -fuzz FuzzConditionParser -fuzztime $(FUZZTIME) ./internal/monitor/
	$(GO) test -fuzz FuzzEvaluatorAgreement -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -fuzz FuzzProfileKernelAgreement -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -fuzz FuzzOverlapsAgreement -fuzztime $(FUZZTIME) ./internal/interval/
	$(GO) test -fuzz FuzzTraceDecode -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz FuzzReadJSONAgreement -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz FuzzIncrementalSnapshotAgreement -fuzztime $(FUZZTIME) ./internal/online/
	$(GO) test -fuzz FuzzCompactionAgreement -fuzztime $(FUZZTIME) ./internal/online/
	$(GO) test -fuzz FuzzStreamRows -fuzztime $(FUZZTIME) ./internal/online/
	$(GO) test -fuzz FuzzMatrixAgreement -fuzztime $(FUZZTIME) ./internal/batch/

# Chaos gate: explore 64 seeded (protocol, fault plan) cases under the race
# detector — the same check CI's chaos job runs (see internal/faultsim).
chaos:
	$(GO) test -race ./internal/faultsim -seeds=64

# The syncmon binary the flight and alerts targets run: `go run` reports
# every non-zero exit as 1, which would let an error (exit 2) pass as the
# expected violation exit 1.
syncmon:
	$(GO) build -o syncmon ./cmd/syncmon

# Flight-recorder smoke: run the monitor against a lossy simulated execution
# with a condition that must fail (exit 1), and check the causal black box
# it dumps to flight_violation.json holds events with their vector clocks —
# the same step CI's flight-recorder smoke runs.
flight: syncmon
	rm -f flight_violation.json
	./syncmon -faults "twophase,nodes=3,rounds=2,seed=5,drop=0.1" \
		-explain -flight-out flight_violation.json \
		-cond 'backwards: R1(apply-0, vote-0)'; \
		code=$$?; test $$code -eq 1 || { echo "expected violation exit 1, got $$code"; exit 1; }
	test -s flight_violation.json
	grep -q '"clock": \[' flight_violation.json
	@echo "flight bundle written to flight_violation.json"

# Alerting demo: replay the seeded dup=1 chaos scenario with an alert rule
# over the sampled violation counter (internal/obs/alert). The firing
# transition prints as an ALERT line, the run still exits 1 — alerts never
# change the syncmon exit contract — and the sampled time-series store is
# dumped to tsdb_dump.json (the same scenario CI's alert-rule replay gates).
alerts: syncmon
	printf 'violations[critical]: syncmon.violations.count > 0\n' > alerts.rules
	-./syncmon -faults "twophase,nodes=3,rounds=2,seed=5,dup=1" \
		-cond 'c: R1(vote-0, apply-0)' -cond 'negc: !R1(vote-0, apply-0)' \
		-alert-rules alerts.rules -tsdb-out tsdb_dump.json
	@echo "alert rules in alerts.rules; time-series dump written to tsdb_dump.json"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mutex
	$(GO) run ./examples/airdefense
	$(GO) run ./examples/multimedia
	$(GO) run ./examples/bsp

coverage:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt trace_ring.json trace_spans.json explain_flows.json benchtab_new.json cpu.pprof mem.pprof alerts.rules tsdb_dump.json flight_violation.json syncmon
