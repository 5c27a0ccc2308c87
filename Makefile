# `make help` lists the targets; see the comments above each for detail.
.PHONY: help
help:
	@echo "test            build + full test suite (the tier-1 gate)"
	@echo "check           vet + race tests + fuzz/examples/batch smokes"
	@echo "fuzz-smoke      short native-fuzzer runs (parsers, fail-soft, traceparent,"
	@echo "                model search, evaluation tape, affine forms, interpreter,"
	@echo "                C arithmetic across layers)"
	@echo "examples-smoke  run the runnable examples"
	@echo "batch-smoke     cold + warm project run over examples/project, then a"
	@echo "                cold run whose small -cache-max-bytes forces evictions"
	@echo "summary-smoke   summary gate: default runs and WithParallelism(4) runs must"
	@echo "                reproduce the report and batch goldens, plus the"
	@echo "                exactness and linear-build pins (-race)"
	@echo "intern-smoke    private-arena gate: WithParallelism(4) runs must reproduce"
	@echo "                the report golden while concurrent jobs share only"
	@echo "                read-only data, plus the arena property/alloc pins (-race)"
	@echo "detect-smoke    detector-registry gate: every corpus must reproduce the"
	@echo "                committed report golden; scenario packs must flag the"
	@echo "                seeded leakpacks (-race)"
	@echo "golden-update   regenerate the root report and witness goldens"
	@echo "                (testdata/) and the evaluation counters golden"
	@echo "                (internal/bench/testdata/) — only for an intended change"
	@echo "chaos-smoke     kill a worker mid-batch; the fleet must fail soft (-race)"
	@echo "bench-report    print the paper's evaluation report (the counters of its"
	@echo "                measured tables are pinned by the counters golden)"
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
# The forward-checked model search must equal the plain enumeration it
# replaces (same model, same budget spent), the model search's flat
# evaluation tape must answer exactly as sym.Eval does, the flat affine
# forms must evaluate as the expression DAGs they are extracted from, and
# the compiled MiniC interpreter must fail with an error, never panic, on
# any parsed program. Constant folding, sym.Eval, the tape, the MiniC
# interpreter and the PRIML interpreter must compute every operator and
# math builtin as sym's operator table does. The go tool runs one target
# per invocation.
.PHONY: fuzz-smoke
fuzz-smoke:
	go test ./internal/minic -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s
	go test ./internal/symexec -run '^$$' -fuzz '^FuzzFailSoft$$' -fuzztime 10s
	go test ./internal/edl -run '^$$' -fuzz '^FuzzEDL$$' -fuzztime 10s
	go test ./internal/obs -run '^$$' -fuzz '^FuzzTraceparent$$' -fuzztime 10s
	go test ./internal/edl -run '^$$' -fuzz '^FuzzRuleConfig$$' -fuzztime 10s
	go test ./internal/sym -run '^$$' -fuzz '^FuzzIntern$$' -fuzztime 10s
	go test ./internal/solver -run '^$$' -fuzz '^FuzzModelSearch$$' -fuzztime 10s
	go test ./internal/sym -run '^$$' -fuzz '^FuzzTape$$' -fuzztime 10s
	go test ./internal/sym -run '^$$' -fuzz '^FuzzExtractAffine$$' -fuzztime 10s
	go test ./internal/interp -run '^$$' -fuzz '^FuzzInterp$$' -fuzztime 10s
	go test ./internal/sym -run '^$$' -fuzz '^FuzzArith$$' -fuzztime 10s

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
# load it in Perfetto); CI uploads it as an artifact. A third, cold run
# into a fresh directory capped at SMOKE_CACHE_CAP bytes — less than the
# first run's entries take, which the recipe checks — exercises eviction
# end to end: same exit status 2, and the entries left must fit the cap.
# See docs/BATCH.md.
SMOKE_CACHE_CAP = 1500
.PHONY: batch-smoke
batch-smoke:
	rm -rf .pscache-smoke .pscache-smoke-capped bin/privacyscope-smoke batch-smoke-trace.json
	go build -o bin/privacyscope-smoke ./cmd/privacyscope
	./bin/privacyscope-smoke -dir examples/project -cache-dir .pscache-smoke -trace-out batch-smoke-trace.json; test $$? -eq 2
	grep -q '"traceEvents"' batch-smoke-trace.json
	./bin/privacyscope-smoke -dir examples/project -cache-dir .pscache-smoke | grep -Eq 'verdict: .* \([1-9][0-9]* cached, 0 analyzed, 0 errors\)'
	test $$(cat .pscache-smoke/*.psc | wc -c) -gt $(SMOKE_CACHE_CAP)
	./bin/privacyscope-smoke -dir examples/project -cache-dir .pscache-smoke-capped -cache-max-bytes $(SMOKE_CACHE_CAP); test $$? -eq 2
	test $$(cat .pscache-smoke-capped/*.psc | wc -c) -le $(SMOKE_CACHE_CAP)
	rm -rf .pscache-smoke .pscache-smoke-capped bin/privacyscope-smoke

# Summary smoke: the compositional-analysis gate. Every analysis resolves
# calls through summaries, and the report golden was recorded with every
# call inlined, so default runs and WithParallelism(4) runs over the ML
# suite, the §IV programs and the examples/project tree must reproduce it
# byte for byte, as must a batch run configured with the removed
# "summaries" option; the engine-level pins check each summary against a
# table-free exploration and the build's linear cost. Run under the race
# detector because the lowered module and its summary table are shared
# read-only across parallel per-ECALL jobs; the shadowing pins join the
# set because lowering binds the module's identifiers in place, before
# those jobs read them.
.PHONY: summary-smoke
summary-smoke:
	go test -race -count=1 -run '^(TestSummary.*|TestGoldenProjectReportSummaryMode|TestShadow.*)$$' . ./internal/symexec ./internal/batch

# Intern smoke: the private-arena gate. Every engine interns its expressions
# in its own hash-consing arena (summary replay included), and concurrent
# per-ECALL jobs share only read-only data — the lowered program and its
# summary table — so the committed report golden
# (testdata/report_golden.txt) must come out byte for byte under ECALL
# parallelism; the arena's property/fuzz-regression/alloc pins ride in
# ./internal/sym. Run under the race detector, which fails the gate if the
# jobs share anything they write.
.PHONY: intern-smoke
intern-smoke:
	go test -race -count=1 -run '^TestIntern' . ./internal/sym

# Detector-registry gate (docs/DETECTORS.md): on the ML suite, the §IV
# stacks and the examples trees the production path (facade → detect.Run)
# must reproduce the committed report golden (testdata/report_golden.txt)
# byte for byte; the four scenario packs must flag every seeded
# examples/leakpacks unit and stay quiet on the clean twins; the detector
# selection must partition every cache tier (rule config errors and fuzz
# coverage ride in ./internal/edl).
.PHONY: detect-smoke
detect-smoke:
	go test -race -count=1 -run '^TestDetect' . ./internal/edl ./internal/server ./internal/bench

# Regenerate the goldens — the root report and witness goldens and the
# evaluation counters golden (Table V, the scalability study, the summary,
# detector and batch tables) — from the current code. Run only when an
# output change is intended, and review the diff before committing it.
.PHONY: golden-update
golden-update:
	go test -count=1 -run '^(TestDetectReportGolden|TestWitnessGolden)$$' . -update
	go test -count=1 -run '^TestBenchCountersGolden$$' ./internal/bench -update

# Print the paper's evaluation report. Its deterministic counters are
# gated by TestBenchCountersGolden in the tier-1 suite; performance is
# gated by psbench (cmd/psbench) alone.
.PHONY: bench-report
bench-report:
	go run ./cmd/benchreport

# The benchmark harness is a module of its own (cmd/psbench/go.mod), so the
# root go build/vet/test never compile it; this target does, catching API
# or counter-name changes in the packages it calls.
.PHONY: psbench-test
psbench-test:
	cd cmd/psbench && go vet ./... && go test ./...

.PHONY: bench
bench:
	go test -bench=. -benchmem ./...
