GO ?= go
# Output file for the `bench` record; override per PR, e.g.
# `make bench BENCH=BENCH_pr10.json`.
BENCH ?= BENCH_pr10.json
# How long `make fuzz` runs each fuzz target.
FUZZTIME ?= 10s

.PHONY: build bins test race vet fmt fuzz bench overhead smoke ci

build:
	$(GO) build ./...

# bins links every command (including the distributed sfi-coord/sfi-worker
# pair) into ./bin — the ci proof that all binaries actually build.
bins:
	$(GO) build -o bin/ ./cmd/...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when any file is not gofmt-clean; `gofmt -l .` names them.
fmt:
	test -z "$$(gofmt -l .)"

# The -race pass targets the packages that exercise concurrent model copies
# and cross-process coordination: internal/core (campaign fan-out over
# cloned runners), internal/engine and its backends (the registry plus the
# p6lite/awan models that campaign workers clone concurrently),
# internal/awan (the gate engine cloned per worker),
# internal/dist (the loopback coordinator+worker integration tests, HTTP
# leases, fleet aggregation), internal/obs (concurrent metrics collectors,
# fleet snapshot merging, trace sinks), internal/stats (the lock-free
# convergence estimator campaign workers feed concurrently), internal/store
# (the single-flight image cache cloned into concurrent campaigns) and
# internal/server (the multi-campaign scheduler and its executors).
race:
	$(GO) test -race ./internal/core ./internal/engine/... ./internal/awan ./internal/dist ./internal/obs ./internal/stats ./internal/store ./internal/server

# fuzz runs the tree's fuzz targets for $(FUZZTIME) each (plain `go test`
# only replays their seed corpora). FuzzSECDED checks the word-wise SECDED
# code against the bit-serial oracle on arbitrary stored words.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSECDED -fuzztime $(FUZZTIME) ./internal/bits

# bench runs every benchmark once for a quick smoke, then has sfi-bench
# re-measure the headline numbers and emit the machine-readable record to
# $(BENCH).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...
	$(GO) run ./cmd/sfi-bench -out $(BENCH)

# overhead is the observability cost gate: BenchmarkInjection with the
# no-op default must stay within 5% of the recorded baseline, the
# metrics+trace-on path within 5% of the no-op path, the distributed
# loopback campaign with fleet observability (heartbeat metric deltas,
# trace attachment) within 5% of the observability-off loopback run, and
# campaign tracing (per-batch spans) within 5% of the untraced run. It is
# also the stratified-sampling gate: a Neyman-allocated campaign must
# reach full stratum coverage with strictly fewer injections than uniform
# sampling at the same margin and confidence. A missing baseline file is
# recorded rather than failed (fresh machine).
overhead:
	$(GO) run ./cmd/sfi-bench -guard -baseline BENCH_baseline.json

# smoke is the campaign-service end-to-end gate: boot an sfi-server over a
# fresh store, submit an adaptive campaign over real HTTP, watch it
# converge, and pull the report, events, status and metrics back out.
smoke:
	$(GO) test -count=1 -run TestLoopbackSubmitConvergeReport ./internal/server

ci: vet fmt build bins test race fuzz overhead smoke
