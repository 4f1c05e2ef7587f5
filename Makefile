# Local targets mirror the CI matrix (.github/workflows/ci.yml) exactly:
# `make ci` runs the same gates as the workflow's jobs.

GO ?= go
PKGS := ./...
# Packages the parallel experiment engine and the intra-frame render-ahead
# helper exercise concurrently — the race detector's regression surface
# (telemetry: one shared Trace fed by the pool; raster: disjoint-tile
# FrameBuffer writes; sim: render-ahead's claim/wait handshake; serve:
# concurrent /v1/run with mid-flight cancellation against the shared
# singleflight runner).
RACE_PKGS := . ./internal/experiments ./internal/core ./internal/sim ./internal/mem ./internal/telemetry ./internal/raster ./internal/resultstore ./internal/serve
# Statement-coverage floor: just under the measured baseline (73.8% with the
# service layer and its uncovered cmd/libraserve + cmd/loadgen mains, which
# the serve-smoke job exercises end to end instead), enforced by the CI
# coverage job.
COVERAGE_MIN ?= 73.5

# The concurrency tests the stress lane repeats under the race detector: the
# service's admission, drain and cancellation paths, the experiment
# singleflight and pool, the result store's locks and atomic writes, and the
# engine's render-ahead helpers. -short trims the render-ahead equivalence
# matrices to their most concurrent corner.
STRESS_PKGS := ./internal/serve ./internal/experiments ./internal/resultstore ./internal/sim
STRESS_RUN := '^(TestAdmission|TestConcurrentRunWithCancellation|TestShutdown|TestRunBackpressure429|TestRequestTimeout504|TestSlowHeadersDisconnected|TestSlowBodyCutOff|TestRunOutlivesReadTimeout|TestSingleflight|TestFollower|TestCancelledLeader|TestCancelledRun|TestCancelAborts|TestPool|TestStoreSharedKeyOneSimulation|TestLockMutualExclusion|TestStaleLockTakeover|TestPutOverwriteIsAtomic|TestRenderAhead)'

# The timed benchmarks BENCH_ci.json records and gates: the end-to-end frame
# rows of the root package and the layer rows beneath them — geometry,
# binning, tile signatures, rasterization and the trace write — each at one
# and two CPUs, so the render-ahead helper's single-CPU cost is gated beside
# its two-CPU gain.
BENCH_TIMED := -bench 'Frame|RenderTileInto|Geometry|Bin|TileSignatures|TraceWrite' -benchmem -count 5 -cpu 1,2 -run '^$$' -timeout 0 . ./internal/raster ./internal/gpipe ./internal/tiling ./internal/trace
# Where `make profile` writes the CPU profile and its -top listing.
PROFILE_DIR ?= /tmp

.PHONY: build test race stress fmt vet lint lint-fix-check bench bench-json bench-gate bench-gate-update profile cover determinism trace-smoke store-smoke serve-smoke fuzz ci

build:
	$(GO) build $(PKGS)

test:
	$(GO) test -shuffle=on $(PKGS)

race:
	$(GO) test -race $(RACE_PKGS)

# The concurrency tests, twenty times each under the race detector, so a
# flaky interleaving fails the change that introduces it rather than a
# later, unrelated one.
stress:
	$(GO) test -race -short -count=20 -run $(STRESS_RUN) $(STRESS_PKGS)

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet $(PKGS)

# Machine-checked contracts, enforced by the in-repo analyzer suite
# (cmd/libralint: detlint, telemetrylint, seedlint, alloclint, retainlint,
# ctxlint — see DESIGN.md §13). Suppressions live in libralint.allow; stale
# entries fail the run. `-analyzer a,b` runs a subset.
lint:
	$(GO) run ./cmd/libralint $(PKGS)

# Allowlist hygiene gate: the suppression file must be exactly the reviewed
# set (TestAllowlistIsMinimal pins every entry), the repo must lint clean
# through the library path, and the hot-path closure must still cover every
# AllocsPerRun==0-gated function.
lint-fix-check:
	$(GO) test -count=1 -run 'TestRepoIsLintClean|TestAllowlistIsMinimal|TestHotPathSetCoversAllocGates' ./internal/analysis

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' -timeout 0 $(PKGS)

# Timed benchmark runs converted to the BENCH_ci.json record CI archives.
bench-json:
	$(GO) test $(BENCH_TIMED) | tee /tmp/libra-bench.txt
	$(GO) run ./cmd/benchjson -o BENCH_ci.json < /tmp/libra-bench.txt

# Allocation/perf regression gate against the committed BENCH_ci.json:
# allocs/op is a hard failure above a small tolerance (deterministic and
# machine-independent), ns/op and B/op only warn (runner noise). Refresh the
# baseline with `make bench-gate-update` after an intentional change.
bench-gate:
	$(GO) test $(BENCH_TIMED) | tee /tmp/libra-bench.txt
	$(GO) run ./cmd/benchjson -check -baseline BENCH_ci.json < /tmp/libra-bench.txt

bench-gate-update:
	$(GO) test $(BENCH_TIMED) | tee /tmp/libra-bench.txt
	$(GO) run ./cmd/benchjson -check -update -baseline BENCH_ci.json < /tmp/libra-bench.txt

# CPU profile of the steady-state frame (BenchmarkFrame) and its
# `go tool pprof -top` listing, the measurement an optimization starts from:
# it should target the top entry, not a guess.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkFrame$$' -benchtime 20x -timeout 0 \
		-cpuprofile $(PROFILE_DIR)/libra-frame.pprof -o $(PROFILE_DIR)/libra-frame.test .
	$(GO) tool pprof -top $(PROFILE_DIR)/libra-frame.test $(PROFILE_DIR)/libra-frame.pprof \
		> $(PROFILE_DIR)/libra-frame-top.txt
	head -n 30 $(PROFILE_DIR)/libra-frame-top.txt

# Statement coverage with the same floor the CI coverage job enforces.
cover:
	$(GO) test -coverprofile=/tmp/libra-coverage.out $(PKGS)
	@total=$$($(GO) tool cover -func=/tmp/libra-coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (minimum $(COVERAGE_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVERAGE_MIN)" 'BEGIN { exit !(t+0 >= m+0) }' \
		|| { echo "coverage $$total% is below the $(COVERAGE_MIN)% floor"; exit 1; }

# Byte-identical suite output between serial and fanned-out runs, for the
# experiment pool (-jobs) and the intra-frame render-ahead helper
# (-sim-workers), composed: the fully parallel run must reproduce the fully
# serial one.
# GOMAXPROCS=4 gives the parallel runs their render-ahead helper on any host
# (the engine caps helpers at GOMAXPROCS−1); -sim-workers 1 is the serial
# engine.
determinism:
	$(GO) build -o /tmp/libra-suite ./cmd/suite
	/tmp/libra-suite -suite mem -frames 4 -warmup 1 -jobs 1 -sim-workers 1 -quiet > /tmp/libra-suite-serial.txt
	/tmp/libra-suite -suite mem -frames 4 -warmup 1 -jobs 4 -sim-workers 1 -quiet > /tmp/libra-suite-jobs4.txt
	GOMAXPROCS=4 /tmp/libra-suite -suite mem -frames 4 -warmup 1 -jobs 4 -sim-workers 4 -quiet > /tmp/libra-suite-par4x4.txt
	diff -u /tmp/libra-suite-serial.txt /tmp/libra-suite-jobs4.txt
	diff -u /tmp/libra-suite-serial.txt /tmp/libra-suite-par4x4.txt
	/tmp/libra-suite -suite mem -frames 4 -warmup 1 -jobs 1 -sim-workers 1 -render-elim -quiet > /tmp/libra-suite-re-serial.txt
	GOMAXPROCS=4 /tmp/libra-suite -suite mem -frames 4 -warmup 1 -jobs 4 -sim-workers 4 -render-elim -quiet > /tmp/libra-suite-re-par4x4.txt
	diff -u /tmp/libra-suite-re-serial.txt /tmp/libra-suite-re-par4x4.txt
	$(GO) build -o /tmp/librasim ./cmd/librasim
	/tmp/librasim -game AnB -rus 2 -frames 4 -sim-workers 4 -json | grep -o '"FrameHash":[0-9]*' > /tmp/libra-hash-off.txt
	/tmp/librasim -game AnB -rus 2 -frames 4 -sim-workers 4 -render-elim -json | grep -o '"FrameHash":[0-9]*' > /tmp/libra-hash-on.txt
	diff -u /tmp/libra-hash-off.txt /tmp/libra-hash-on.txt

# Capture a real trace and validate its Perfetto-loadable shape.
trace-smoke:
	$(GO) build -o /tmp/librasim ./cmd/librasim
	/tmp/librasim -game SuS -policy libra -rus 2 -frames 2 \
		-trace-out /tmp/libra-trace.json -metrics-out /tmp/libra-metrics.json > /dev/null
	$(GO) run ./cmd/tracecheck -rus 2 /tmp/libra-trace.json /tmp/libra-metrics.json

# Persistent result store, end to end: a cold suite run populates a fresh
# store, then warm runs — including one with a different parallelism shape —
# must print byte-identical tables while executing zero simulations (the
# stderr store line proves it: sims=0).
store-smoke:
	$(GO) build -o /tmp/libra-suite ./cmd/suite
	rm -rf /tmp/libra-store-smoke
	/tmp/libra-suite -suite mem -frames 3 -warmup 1 -jobs 4 -quiet \
		-result-dir /tmp/libra-store-smoke > /tmp/libra-store-cold.txt 2> /tmp/libra-store-cold.err
	/tmp/libra-suite -suite mem -frames 3 -warmup 1 -jobs 4 -quiet \
		-result-dir /tmp/libra-store-smoke > /tmp/libra-store-warm.txt 2> /tmp/libra-store-warm.err
	/tmp/libra-suite -suite mem -frames 3 -warmup 1 -jobs 1 -sim-workers 4 -quiet \
		-result-dir /tmp/libra-store-smoke > /tmp/libra-store-warm2.txt 2> /tmp/libra-store-warm2.err
	diff -u /tmp/libra-store-cold.txt /tmp/libra-store-warm.txt
	diff -u /tmp/libra-store-cold.txt /tmp/libra-store-warm2.txt
	grep -q 'sims=0' /tmp/libra-store-warm.err
	grep -q 'sims=0' /tmp/libra-store-warm2.err
	$(GO) run ./cmd/resultstore -dir /tmp/libra-store-smoke verify

# Simulation service, end to end (the CI serve-smoke job runs this same
# script): boot libraserve on a fresh store, cold loadgen pass, graceful
# SIGTERM drain, warm 1000-client pass answered with zero simulations,
# byte-identical /v1/run body vs a direct `librasim -json` run, and a
# mid-flight cancellation that must leave the store verifiably clean.
serve-smoke:
	bash scripts/serve_smoke.sh

# Short coverage-guided fuzzing bursts on top of the committed seed corpora
# (which plain `go test` already replays on every run).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzWorkloadGen -fuzztime 15s ./internal/workloads
	$(GO) test -run '^$$' -fuzz FuzzSchedEquivalence -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzResultKey -fuzztime 15s ./internal/experiments
	$(GO) test -run '^$$' -fuzz FuzzDecodeRunRequest -fuzztime 15s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzTileSignature -fuzztime 15s ./internal/tiling
	$(GO) test -run '^$$' -fuzz FuzzRasterMatchesReference -fuzztime 15s ./internal/raster
	$(GO) test -run '^$$' -fuzz FuzzTexelAddr -fuzztime 15s ./internal/scene

ci: build vet fmt lint lint-fix-check test race stress bench bench-gate determinism trace-smoke store-smoke serve-smoke fuzz cover
