# `make help` lists the targets; see the comments above each for detail.
.PHONY: help
help:
	@echo "test            build + full test suite (the tier-1 gate)"
	@echo "check           vet + race tests + fuzz/examples/batch smokes"
	@echo "fuzz-smoke      short native-fuzzer runs (parsers, fail-soft, traceparent)"
	@echo "examples-smoke  run the runnable examples"
	@echo "batch-smoke     cold + warm project run over examples/project"
	@echo "summary-smoke   summary-vs-inline differential over every corpus (-race)"
	@echo "intern-smoke    hash-consing differential: interning on vs off must be"
	@echo "                byte-identical over every corpus, jobs-invariant, plus"
	@echo "                the arena property/race/alloc pins (-race)"
	@echo "detect-smoke    detector-registry differential: legacy detectors must be"
	@echo "                byte-identical to the pre-refactor checker over every"
	@echo "                corpus; scenario packs must flag the seeded leakpacks (-race)"
	@echo "chaos-smoke     kill a worker mid-batch; the fleet must fail soft (-race)"
	@echo "bench-report    regenerate the paper's evaluation report"
	@echo "bench-check     compare a fresh run against the committed BENCH_N.json;"
	@echo "                deterministic engine columns must match exactly (CI fails"
	@echo "                on drift), timing columns only warn inside tolerance"
	@echo "bench-snapshot  refresh the committed BENCH_N.json in place — run this"
	@echo "                (and commit the result) when an INTENDED engine change"
	@echo "                shifts the deterministic counters and bench-check fails"
	@echo "psbench-test    vet + tests of the cmd/psbench benchmark module (its own"
	@echo "                go.mod, so ./... from the root never builds it)"
	@echo "bench           go test -bench over everything"

# Tier 1: the seed gate — everything must build and pass.
.PHONY: test
test:
	go build ./...
	go test ./...

# Tier 1.5: vet + race detector (exercises the concurrent telemetry paths,
# WithParallelism, and the privacyscoped daemon), a short fuzz pass over the
# parsers and the fail-soft engine invariant, and the runnable examples.
.PHONY: check
check: fuzz-smoke examples-smoke batch-smoke summary-smoke detect-smoke intern-smoke
	go vet ./...
	go test -race ./...

# Short native-fuzzer runs: the parsers must never crash on arbitrary bytes
# (the EDL parser doubly so — the daemon exposes it over HTTP), budget
# exhaustion must always degrade coverage instead of erroring
# (docs/ROBUSTNESS.md), and the W3C traceparent codec the daemon and
# coordinator ingest off the wire must never crash or mangle a round trip.
# The go tool runs one target per invocation.
.PHONY: fuzz-smoke
fuzz-smoke:
	go test ./internal/minic -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s
	go test ./internal/symexec -run '^$$' -fuzz '^FuzzFailSoft$$' -fuzztime 10s
	go test ./internal/edl -run '^$$' -fuzz '^FuzzEDL$$' -fuzztime 10s
	go test ./internal/obs -run '^$$' -fuzz '^FuzzTraceparent$$' -fuzztime 10s
	go test ./internal/symexec -run '^$$' -fuzz '^FuzzSummaryRoundtrip$$' -fuzztime 10s
	go test ./internal/edl -run '^$$' -fuzz '^FuzzRuleConfig$$' -fuzztime 10s
	go test ./internal/sym -run '^$$' -fuzz '^FuzzIntern$$' -fuzztime 10s

# Chaos smoke: the distributed fail-soft gate (docs/ROBUSTNESS.md). A
# coordinator fans examples/project across three in-process worker daemons
# while deterministic fault injection kills the busiest worker mid-batch;
# the run must re-route every pending unit to the survivors and match a
# single-daemon run byte for byte — verified under the race detector.
.PHONY: chaos-smoke
chaos-smoke:
	go test ./internal/coord -race -count=1 -v -run '^TestChaos'

# The examples double as living documentation — run them so they cannot rot.
.PHONY: examples-smoke
examples-smoke:
	go run ./examples/quickstart
	go run ./examples/enclave_e2e

# Batch smoke: a cold project run over examples/project followed by a warm
# rerun on the same cache dir. The tree contains leaking units, so exit
# status 2 (findings) is the expected outcome of both runs; anything else
# fails the smoke. The cold run also exports its project timeline as a
# Chrome trace-event file (batch-smoke-trace.json, one lane per worker —
# load it in Perfetto); CI uploads it as an artifact. See docs/BATCH.md.
.PHONY: batch-smoke
batch-smoke:
	rm -rf .pscache-smoke bin/privacyscope-smoke batch-smoke-trace.json
	go build -o bin/privacyscope-smoke ./cmd/privacyscope
	./bin/privacyscope-smoke -dir examples/project -cache-dir .pscache-smoke -trace-out batch-smoke-trace.json; test $$? -eq 2
	grep -q '"traceEvents"' batch-smoke-trace.json
	./bin/privacyscope-smoke -dir examples/project -cache-dir .pscache-smoke | grep -Eq 'verdict: .* \([1-9][0-9]* cached, 0 analyzed, 0 errors\)'
	rm -rf .pscache-smoke bin/privacyscope-smoke

# Summary smoke: the compositional-analysis differential gate. Summary mode
# (-summaries) must be byte-identical to inline mode — the differential
# oracle — over the ML suite, the §IV cross-stack programs, the
# examples/project tree and the batch goldens, with the summary-store
# invalidation pins included; run under the race detector because the
# summary table is shared read-only across parallel per-ECALL jobs.
.PHONY: summary-smoke
summary-smoke:
	go test -race -count=1 -run '^TestSummary' . ./internal/symexec ./internal/batch

# Intern smoke: the hash-consing differential gate. Interning (the default)
# is a pure representation change, so -intern=false must produce
# byte-identical JSON envelopes over the ML suite, the §IV stacks,
# examples/project and examples/leakpacks, invariant under ECALL
# parallelism and path workers; the arena's property/fuzz-regression/alloc
# pins ride in ./internal/sym. Run under the race detector because one
# arena is shared read-only across path-worker goroutines.
.PHONY: intern-smoke
intern-smoke:
	go test -race -count=1 -run '^TestIntern' . ./internal/sym

# Detector-registry differential gate (docs/DETECTORS.md): the registry's
# legacy detectors (explicit, implicit, timing) must render byte-identically
# to the pre-refactor core.Checker — kept unmodified as the oracle — over
# the ML suite, the §IV stacks and the examples trees; the four scenario
# packs must flag every seeded examples/leakpacks unit and stay quiet on the
# clean twins; the detector selection must partition every cache tier (rule
# config errors and fuzz coverage ride in ./internal/edl).
.PHONY: detect-smoke
detect-smoke:
	go test -race -count=1 -run '^TestDetect' . ./internal/edl ./internal/server ./internal/bench

# Regenerate the paper's evaluation report.
.PHONY: bench-report
bench-report:
	go run ./cmd/benchreport

# Compare a fresh measured run against the latest committed BENCH_N.json
# snapshot: deterministic engine counters must match exactly — this is a
# FAILING gate, in CI too; timing columns only warn inside a 50% host
# tolerance. When an intended engine change shifts the counters, refresh
# the snapshot with `make bench-snapshot` and commit the result.
.PHONY: bench-check
bench-check:
	go run ./cmd/benchreport -check "$$(ls BENCH_*.json | sort -V | tail -1)"

.PHONY: bench-snapshot
bench-snapshot:
	go run ./cmd/benchreport -json > "$$(ls BENCH_*.json | sort -V | tail -1)"

# The benchmark harness is a module of its own (cmd/psbench/go.mod), so the
# root go build/vet/test never compile it; this target does, catching API
# or counter-name changes in the packages it calls.
.PHONY: psbench-test
psbench-test:
	cd cmd/psbench && go vet ./... && go test ./...

.PHONY: bench
bench:
	go test -bench=. -benchmem ./...
