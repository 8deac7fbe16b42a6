# CI entry points for the chase & backchase optimizer.
#
#   make ci         - everything a regression gate needs: vet, build, the
#                     full test suite, a race-detector pass over the
#                     concurrency-heavy packages, a 10-second fuzz run,
#                     a one-iteration benchmark smoke so the benchmark
#                     harness itself cannot rot, bench-build, and
#                     examples.
#   make bench-build - vet and test the cnbbench module. It is a module
#                     of its own, so the root `go test ./...` never
#                     compiles it; without this an API break in a
#                     package it imports would surface only when the
#                     benchmark runs.
#   make examples   - build and run the offline examples; each exits
#                     non-zero when its best plan fails to execute or
#                     disagrees with the reference evaluation of its
#                     query. go build ./... compiles them but never runs
#                     them.
#   make test       - fast feedback: plain test run, no race detector.
#   make race       - race-detector run of the concurrency-heavy packages
#                     (the serving layer and everything its concurrent
#                     requests share state through), not the whole
#                     module.
#   make cover      - coverage profile over internal/... with a floor:
#                     fails below $(COVER_FLOOR)%.
#   make bench      - the real benchmark sweep (longer).
#   make bench-json - run the experiments and write $(BENCH_JSON), the
#                     machine-readable perf trajectory CI archives.
#   make bench-check - regenerate $(BENCH_JSON) and gate
#                     it against the committed BENCH_BASELINE.json:
#                     fails on >10% growth of any *_states metric or any
#                     cheapest-cost change (see cmd/benchcheck). After an
#                     intentional search change, regenerate the baseline
#                     with make bench-baseline and commit it.
#   make bench-exec - run the E18 measured-execution experiment at the
#                     CI data tier ($(EXEC_ROWS) fact rows) under a hard
#                     wall-clock timeout; E18 hard-fails unless the
#                     optimizer's delivered plan beats the baseline with
#                     an identical result set. Nightly tiers: run with
#                     EXEC_ROWS=1000000 (or 10000000) and a larger
#                     EXEC_TIMEOUT.
#   make lint-docs  - godoc gate: cmd/lintdoc (a dependency-free
#                     equivalent of revive's "exported" rule) over the
#                     packages whose exported API is documented
#                     contractually (engine, service, core, cost,
#                     greedy, instance, eval, parser).
#   make fuzz-smoke - run each fuzz target for 10 seconds on two
#                     workers, beyond its committed seed corpus, which
#                     plain `go test` already replays; a new input is
#                     minimized for at most 2 s (the 60 s default would
#                     eat most of the window):
#                     FuzzEqualMatchesKey (the value model's Equal and
#                     Hash against its canonical keys),
#                     FuzzRowSetMatchesSet (the query-result accumulator
#                     against a Set of the records or scalars its rows
#                     stand for), FuzzParse (Parse
#                     and Target never panic),
#                     FuzzCachedParseMatchesParse (a parse through a
#                     warm design cache equals a fresh Parse),
#                     FuzzCompiledHomsMatchReference (the compiled
#                     homomorphism search against the Subst-and-intern
#                     reference), FuzzIncrementalChaseMatchesNaive (the
#                     delta-driven chase applies the naive chase's steps
#                     byte for byte), FuzzCanonicalSignature (invariance
#                     under renaming, binding shuffle, condition reorder
#                     and flip), FuzzHashKeyMatchesFresh (a memoized or
#                     hash-consed HashKey against a fresh render of a
#                     deep copy), FuzzRewriteMatchesReference (the
#                     class-id subquery construction and output
#                     normalization against the string-keyed reference)
#                     and FuzzFastCertificateMatchesCanon (a certificate
#                     or an equality decided on the frozen root closure
#                     against the candidate's canonical database).
#   make serve-load - race-instrumented serving gate: the 16-worker load
#                     harnesses (plan-only and end-to-end /query) plus
#                     the singleflight storm/cancellation suites and the
#                     query-execution suites (instance hot-swap race,
#                     mid-stream cancellation leak check, exec-error
#                     surfacing), in -short mode so CI pays minutes,
#                     not tens of minutes.
#   make serve-cold - race-instrumented two-tier serving gate: E20's
#                     cold-shape replay (greedy tier, detached upgrade,
#                     differential checks) plus the tier/singleflight
#                     detachment and evicted-shape suites, the
#                     percentile, histogram and greedy planner unit
#                     tests, and the cnbd metrics-ordering and
#                     histogram-reset handler tests. Not -short: the
#                     cold replay IS the gate.
#   make serve-smoke - build cnbd, start it, optimize the ProjDept
#                     example twice over HTTP (the second round must be
#                     a plan-cache hit), install a generated instance
#                     and query it end to end (rows must come back),
#                     install a stats snapshot, and shut it down. Fails
#                     on any error response.
#
# Set GOFLAGS=-short to skip the slow paths: experiment tests skip
# themselves and bench-smoke becomes a no-op.

GO ?= go
COVER_FLOOR ?= 70
BENCH_JSON ?= BENCH_PR3.json
BENCH_BASELINE ?= BENCH_BASELINE.json
# The packages whose tests exercise shared mutable state across
# goroutines: the serving layer, which coalesces concurrent requests and
# runs detached flights side by side, and what those flights share or
# run concurrently — the optimizer, the backchase (a SubqueryBuilder's
# frozen root closure may serve several goroutines), the chase and the
# frozen congruence closures. core rides along for the
# canonicalization property/stress suite that every concurrent cache key
# depends on. instance and engine ride along for the key order a Set or
# Dict caches on first read, which concurrent plans over one installed
# instance race to fill. parser rides along for the design cache every
# cnbd request goes through. baseline rides along for BucketRewrite,
# which concurrent callers may run side by side.
RACE_PKGS = ./internal/backchase/... ./internal/chase/... ./internal/congruence/... ./internal/optimizer/... ./internal/service/... ./internal/core/... ./internal/instance/... ./internal/engine/... ./internal/parser/... ./internal/baseline/...

# Where serve-smoke binds its throwaway server.
CNBD_ADDR ?= 127.0.0.1:18343

# E18 data tier and wall-clock ceiling for bench-exec. The CI tier is
# 10^5 fact rows; nightly runs override both.
EXEC_ROWS ?= 100000
EXEC_TIMEOUT ?= 600

.PHONY: ci vet build test race fuzz-smoke bench-smoke bench-build examples bench bench-json bench-check bench-baseline bench-exec lint-docs cover serve-load serve-cold serve-smoke

ci: vet build test race fuzz-smoke bench-smoke bench-build examples

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The cnbd design-cache churn test rides along: concurrent requests
# through one server's design cache against an uncached server.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run '^TestDesignCache' ./cmd/cnbd

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEqualMatchesKey$$' -fuzztime 10s -fuzzminimizetime 2s -parallel 2 ./internal/instance
	$(GO) test -run '^$$' -fuzz '^FuzzRowSetMatchesSet$$' -fuzztime 10s -fuzzminimizetime 2s -parallel 2 ./internal/instance
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 2s -parallel 2 ./internal/parser
	$(GO) test -run '^$$' -fuzz '^FuzzCachedParseMatchesParse$$' -fuzztime 10s -fuzzminimizetime 2s -parallel 2 ./internal/parser
	$(GO) test -run '^$$' -fuzz '^FuzzCompiledHomsMatchReference$$' -fuzztime 10s -fuzzminimizetime 2s -parallel 2 ./internal/chase
	$(GO) test -run '^$$' -fuzz '^FuzzIncrementalChaseMatchesNaive$$' -fuzztime 10s -fuzzminimizetime 2s -parallel 2 ./internal/chase
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalSignature$$' -fuzztime 10s -fuzzminimizetime 2s -parallel 2 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzHashKeyMatchesFresh$$' -fuzztime 10s -fuzzminimizetime 2s -parallel 2 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRewriteMatchesReference$$' -fuzztime 10s -fuzzminimizetime 2s -parallel 2 ./internal/backchase
	$(GO) test -run '^$$' -fuzz '^FuzzFastCertificateMatchesCanon$$' -fuzztime 10s -fuzzminimizetime 2s -parallel 2 ./internal/backchase

# Skipped under GOFLAGS=-short: a docs-only or fast-lane run should not
# pay for compiling and executing every benchmark.
bench-smoke:
ifneq (,$(findstring -short,$(GOFLAGS)))
	@echo "bench-smoke: skipped (GOFLAGS contains -short)"
else
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
endif

bench-build:
	cd cnbbench && $(GO) vet . && $(GO) test .

# The offline examples (cnbdclient needs a running server; serve-smoke
# drives it).
EXAMPLES = projdept quickstart mediator relational

examples:
	@set -e; for e in $(EXAMPLES); do \
		echo "examples: $$e"; \
		$(GO) run ./examples/$$e >/dev/null; \
	done

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

bench-json:
	$(GO) run ./cmd/chasebench -json-out $(BENCH_JSON)

bench-check:
	$(GO) run ./cmd/chasebench -json-out $(BENCH_JSON)
	$(GO) run ./cmd/benchcheck -baseline $(BENCH_BASELINE) -current $(BENCH_JSON)

bench-baseline:
	$(GO) run ./cmd/chasebench -json-out $(BENCH_BASELINE)

# Measured execution at data scale: E18 hard-fails internally when the
# optimized plan does not beat the baseline or the result sets differ,
# so the target needs no output parsing — only a timeout so a pipeline
# stall cannot hang CI. The binary is prebuilt so the timeout budget is
# spent executing, not compiling.
bench-exec:
	@mkdir -p bin
	$(GO) build -o bin/chasebench ./cmd/chasebench
	timeout $(EXEC_TIMEOUT) ./bin/chasebench -exp E18 -exec-rows $(EXEC_ROWS)

# Godoc gate over the contractually documented packages. Runs in CI's
# lint job next to staticcheck; the tool is in-repo because the gate
# cannot install third-party linters.
lint-docs:
	$(GO) run ./cmd/lintdoc ./internal/engine ./internal/service ./internal/core ./internal/cost ./internal/greedy ./internal/instance ./internal/eval ./internal/parser

# The CI service-load gate: the closed-loop load harnesses (16 workers
# replaying the star/snowflake mix against one Service, plan-only and
# end-to-end through Service.Query) and the singleflight/cancellation
# and query-execution suites, all under the race detector. -short keeps
# the race-instrumented run to a few hundred requests.
serve-load:
	$(GO) test -race -short -count=1 \
		-run 'TestServiceLoadHarness|TestQueryLoadHarness|TestRunQueryLoad|TestSingleflight|TestAlphaRenamed|TestWaiterCancellation|TestLastCallerCancellation|TestSetStats|TestStatsSwap|TestQuery|TestInstallInstance' \
		./internal/bench ./internal/service ./cmd/cnbd

# The CI two-tier serving gate: the E20 cold-shape replay (not -short —
# the three cold backchases are the point) plus the tiering, detachment,
# evicted-shape and degenerate-percentile suites, the per-tier histogram
# suites and the cnbd handler tests that pin the /metrics key order and
# the histogram reset, all race-instrumented, and the greedy planner
# package's full suite including its differential check against eval.
serve-cold:
	$(GO) test -race -count=1 \
		-run 'TestE20ColdTiered|TestTiered|TestDetachedFlight|TestWarmShape|TestEvictedShape|TestPercentile|TestTieredOptimizeEndToEnd|TestHistogram|TestServiceHistograms|TestQueryHistograms|TestMetricsKeyOrder|TestMetricsHistResetOnScrape' \
		./internal/bench ./internal/service ./cmd/cnbd
	$(GO) test -race -count=1 ./internal/greedy

# End-to-end smoke of the cnbd server: start it, run the example client
# (two optimize rounds — the second must be served from the plan cache —
# then an instance install and two /query rounds that must return rows,
# then a metrics dump), install a statistics snapshot, and stop it.
serve-smoke:
	@mkdir -p bin
	$(GO) build -o bin/cnbd ./cmd/cnbd
	@set -e; \
	./bin/cnbd -addr $(CNBD_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	ok=0; \
	for i in $$(seq 1 50); do \
		if curl -sf http://$(CNBD_ADDR)/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.2; \
	done; \
	[ "$$ok" = 1 ] || { echo "serve-smoke: cnbd did not come up" >&2; exit 1; }; \
	$(GO) run ./examples/cnbdclient -addr http://$(CNBD_ADDR) | tee bin/serve-smoke.out; \
	grep -q '"cache_hit": true' bin/serve-smoke.out || { echo "serve-smoke: second round was not a cache hit" >&2; exit 1; }; \
	grep -q '"installed": true' bin/serve-smoke.out || { echo "serve-smoke: instance install did not succeed" >&2; exit 1; }; \
	grep -q '"result_rows"' bin/serve-smoke.out || { echo "serve-smoke: /query returned no result accounting" >&2; exit 1; }; \
	curl -sf -X POST -d '{"Card":{"Proj":5000}}' http://$(CNBD_ADDR)/stats >/dev/null; \
	curl -sf http://$(CNBD_ADDR)/metrics >/dev/null; \
	echo "serve-smoke: OK"

cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@$(GO) tool cover -func=coverage.out | tail -n 1
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (t + 0 < floor + 0) { printf "coverage %.1f%% is below the %s%% floor\n", t, floor; exit 1 } \
		printf "coverage %.1f%% meets the %s%% floor\n", t, floor }'
