GO ?= go
# How long `make fuzz` runs each fuzz target.
FUZZTIME ?= 10s

.PHONY: build bins test race vet fmt fuzz bench smoke lines cmp ci

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
# cloned runners, and the single-flight image cache concurrent campaigns
# clone their prototypes from), internal/engine and its backends (the
# registry plus the p6lite/awan models that campaign workers clone
# concurrently), internal/awan (the gate engine cloned per worker),
# internal/dist (the loopback coordinator+worker integration tests, HTTP
# leases, the ledger's views read while leases move), internal/obs
# (concurrent metrics collectors, trace sinks), internal/stats (the stop
# rule and allocator, which concurrent campaigns call; it holds no shared
# state today, and stays listed so any it gains is raced),
# internal/server (the multi-campaign scheduler and its executors, whose
# embedded worker hands its coordinator request values, not copies: lease,
# heartbeat and shard-report documents are shared across the two), and
# internal/latch, internal/dirty and internal/proc, where what every clone of
# a p6lite backend reads at once lives: the access log, the sparse checkpoint
# images and their baseline (p6lite's TestClonesShareTheRecord runs the
# clones; core's campaign tests fan them out), and cmd/sfi, whose progress
# line reads the campaign's core.Live handle beside the running campaign.
race:
	$(GO) test -race ./internal/core ./internal/engine/... ./internal/awan ./internal/dist ./internal/obs ./internal/stats ./internal/server ./internal/latch ./internal/dirty ./internal/proc ./cmd/sfi

# fuzz runs the tree's fuzz targets for $(FUZZTIME) each (plain `go test`
# only replays their seed corpora). FuzzSECDED checks the word-wise SECDED
# code against the bit-serial oracle on arbitrary stored words; FuzzStore
# drives arbitrary write/snapshot/restore/delta/adopt scripts through the
# dirty-tracked store under latches, memory and arrays, against plain
# slices; FuzzParseTraceparent feeds arbitrary lease traceparent strings to the
# parser a worker trusts for its tracer seed and trace id; FuzzEarlyExit
# runs arbitrary injections (delay, fault, lazy Steps, a second flip) through
# p6lite's Step/Inject/Run, which clock no cycle they can prove fault-free, and
# through the oracle that clocks every one and they must be indistinguishable
# from; FuzzCoordinatorRequests posts
# scripts of arbitrary lease/heartbeat/complete/fail bodies to a journaling
# coordinator, between which every lease may expire (its seeds lease runs of
# shards, heartbeat over them, deliver them in one completion, again, after
# one of their shards was re-granted to another worker, and fail in the
# middle of one), and requires a keyless stop at the smallest converged prefix of
# the shards it accepted, a restart over its journal to reach the same
# ledger, and a twin sent every completion without its trace lines to answer
# alike and reach the same ledger and report (its inputs are kilobytes, so
# minimizing each interesting one is capped at 20 runs — the default minute
# apiece would be the whole budget);
# FuzzCompiledNetlist decodes arbitrary bytes into a small netlist and a
# script of stimulus, per-lane flips and forces, and holds awan's compiled
# program (64-lane and through the scalar facade), its Snapshot/Restore and
# its Clone to the netlist interpreter kept in oracle_test.go; FuzzScanView
# runs arbitrary scripts of latch flips, array strikes, held faults, steps and
# checkpoint restores on a warmed p6lite core, and holds the scan view it
# caches between scan-generation moves to the view the latches' contents
# give, after every step, and every array it calls clean to a clean decode;
# FuzzWireReport decodes arbitrary bytes as a shard's wire report (a
# completion body, a journal line, a stored report document), seeded with
# the shard lines of internal/dist/testdata's parent journals, and requires
# every report it decodes to re-encode to an equal one and every report a
# lease would seal to have marginals that count each injection once;
# FuzzJournal replays arbitrary bytes as the lines after the header of each
# of internal/dist/testdata's parent journals, seeded with their lines whole,
# torn mid-line and corrupted ahead of intact ones, and requires
# NewCoordinator not to panic but to refuse the journal or resume, and a
# second coordinator over the file the first one left to reach the same
# ledger (minimizing is capped as for FuzzCoordinatorRequests);
# FuzzStoredSpans writes arbitrary bytes as a server campaign's events file,
# the one source of its trace, seeded with a real campaign's file from
# internal/server/testdata, and requires Server.Trace not to panic, to place
# each span once under one root with doc.Spans counting them, and to read a
# torn last line as if it were absent (its inputs are kilobytes too, so
# minimizing is capped as for FuzzCoordinatorRequests); FuzzAdvance runs
# arbitrary scripts of steps, flips, held bits, array strikes, checker masking
# and checkpoint restores on two clones of a warmed p6lite core, with and
# without the periphery, and requires Advance(n) on one and n Steps on the
# other to leave every latch word, array cell, memory byte, run counter,
# checker count and event equal after every operation (its seeds reach the
# countdown thresholds, failing scan entries mid-stall, the watchdog limit and
# the scrub wrap); FuzzPervasiveGate runs the same scripts on two clones of
# the warmed core, one gated — its pervasive checks run once a scan
# generation while they pass, its capture parity regenerated only when a
# covered register moved — and one under an access log, which runs every
# check and regenerates the parity every cycle, and requires the two to
# leave every latch word, array cell, memory byte, run counter, failure and
# checker count and event equal after every operation (its seeds flip each
# structure the gate skips, with the checkers on and masked, and hold a
# store-queue word through its recover loop; an input clocks thousands of
# cycles, so minimizing is capped as for FuzzCoordinatorRequests: in 20 s
# the capped run found 29 new inputs, the uncapped one 1); FuzzDecode hands
# Decode arbitrary instruction words, as a
# flip in an instruction latch does, and requires Decode, ClassOf, RegSets and
# Disassemble not to panic and every word's disassembly to reassemble to the
# same instruction.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSECDED -fuzztime $(FUZZTIME) ./internal/bits
	$(GO) test -run '^$$' -fuzz FuzzStore -fuzztime $(FUZZTIME) ./internal/dirty
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzEarlyExit -fuzztime $(FUZZTIME) ./internal/engine/p6lite
	$(GO) test -run '^$$' -fuzz FuzzCoordinatorRequests -fuzztime $(FUZZTIME) -fuzzminimizetime 20x ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzCompiledNetlist -fuzztime $(FUZZTIME) ./internal/awan
	$(GO) test -run '^$$' -fuzz FuzzScanView -fuzztime $(FUZZTIME) ./internal/proc
	$(GO) test -run '^$$' -fuzz FuzzWireReport -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzJournal -fuzztime $(FUZZTIME) -fuzzminimizetime 20x ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzStoredSpans -fuzztime $(FUZZTIME) -fuzzminimizetime 20x ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzAdvance -fuzztime $(FUZZTIME) ./internal/proc
	$(GO) test -run '^$$' -fuzz FuzzPervasiveGate -fuzztime $(FUZZTIME) -fuzzminimizetime 20x ./internal/proc
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/isa

# bench runs every go benchmark once as a smoke (core's BenchmarkRunCampaign
# among them: warm-image campaigns at 1, 2 and 4 workers; proc's
# BenchmarkStep: one model cycle fault-free and in a held fault's recover
# loop, by Step and, in its advance-fault-free and advance-recovering cases,
# by Core.Advance, in ns per observed cycle; mem's
# BenchmarkDigestRange beside p6lite's BenchmarkCheckBarrier, the check of
# one stepped testend that compares the data area's dirty pages with its
# phase's image instead of digesting the area), then the repo's one
# yardstick (benchmark/README.md): six campaign workloads, results in
# benchmark/out/, `go run ./benchmark -compare A B` for a verdict.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...
	$(GO) run ./benchmark

# smoke is the campaign-service end-to-end gate: boot an sfi-server over a
# fresh store, submit an adaptive campaign over real HTTP, watch it
# converge, and pull the report, events, status and metrics back out. Then
# the front doors, from the binaries `bins` linked: `bin/sfi -h`,
# `bin/sfi-coord -h` and `bin/sfi submit -h` must each list every flag
# dist.CampaignFlags registers, so a campaign flag added to one command and
# not the others fails here.
smoke: bins
	$(GO) test -count=1 -run TestLoopbackSubmitConvergeReport ./internal/server
	SFI_BIN=$(CURDIR)/bin $(GO) test -count=1 -run TestFrontDoorsShareCampaignFlags ./cmd/sfi

# lines prints non-test and test Go line counts per package directory, then
# the tree's totals: the number a CHANGES.md entry that claims a reduction
# quotes before and after.
lines:
	@find . -name '*.go' | xargs wc -l | awk '$$2 != "total" { \
		d = $$2; sub("/[^/]*$$", "", d); dirs[d] = 1; \
		if ($$2 ~ /_test\.go$$/) { t[d] += $$1; tt += $$1 } else { n[d] += $$1; nn += $$1 } } \
		END { for (d in dirs) printf "%-28s %7d %7d\n", d, n[d], t[d]; \
		printf "%-28s %7d %7d\n", "~total", nn, tt }' | sort | \
		awk 'BEGIN { printf "%-28s %7s %7s\n", "package", "code", "test" } { sub("^~", ""); print }'

# cmp holds the working tree's output to PARENT's byte for byte: it builds
# sfi, sfi-beam, sfi-tables, sfi-avp and the examples from a `git archive` of
# PARENT (default HEAD: the uncommitted change against its base) and from the
# working tree, runs both over CMP_SHAPES (`sfi -json`), TEXT_SHAPES (sfi's
# text report), BEAM_SHAPES (sfi-beam, its first line, the wall time,
# dropped), TABLE_SHAPES (sfi-tables, its `(… in Xs)` timing lines dropped),
# sfi-avp's default output and EXAMPLES, and names the first shape that
# differs. Every surface that turns
# a report's counts into printed fractions or intervals is on one of these
# lists, so a change to how they are computed is held to the parent's bytes
# on each. The tables
# are the compared surfaces that run many campaigns in one process, so they
# are the byte check of campaigns that clone the process's cached image
# rather than build their own. It is the check
# a change to the engines, the model, the campaign loop or the transports
# describes in CHANGES.md. sfi-beam is the one surface that strikes
# protected-array cells, so the only one that reads a struck array.
# Not part of ci: it needs a parent ref. It needs no network. Both adaptive
# stops are on the list: a uniform `-margin N -stop-on-converge` stops at the
# smallest converged prefix of its dispatch order and a Neyman one at an
# epoch barrier, so each repeats byte for byte at any worker count (at
# -flips 600 the uniform rule first holds at the budget; at -flips 3000 it
# stops at n=596). A Neyman `-dist` stop is on it too: the coordinator plans
# each epoch and decides the stop at the barrier, over sealed epochs only, so
# it repeats whatever order the shards complete in. So does a uniform `-dist`
# stop: the coordinator folds completed shards in shard order, which is
# sample order, through the prefix fold the local run folds its jobs with
# (core.PrefixStop), stops at the smallest converged shard prefix and drops
# the shards that completed past it (at -flips 3000, n=611: 13 shards of 47).
# A coordinator that predates the shared fold stopped on whichever shards had
# completed, so against such a PARENT that shape can differ from run to run.
# `-type REGFILE` is the one shape whose report holds a single latch type, so
# its by_type export is a one-row marginal of the cross; awan under `-allocate neyman` is the one
# shape that folds awan's keyed (per-stratum) draws. `-type GPTR` and
# `-type MODE -sticky` draw scan-ring latches only, whose groups the model
# reads but many of whose bits lie outside the read sets it declares: they
# are the shapes where flips move from clocked to replayed, toggled and
# held. `-sticky -unit Core` holds faults on the pervasive unit, most of
# whose bits are its counters, thermal sensor and debug trace: groups the
# model wrote every cycle and never read, which it now registers idle and
# does not simulate, so a held fault there must leave the report as it was
# when the writes ran. `-flips 73701` is the census, every latch bit of the
# default configuration injected once (a few seconds a side): a change to the
# engine is byte-checked on each bit's outcome, not on a few thousand sampled
# ones. `-flips 500 -dist 1 -shard-size 25` is the benchmark's dist_loopback
# campaign through one HTTP worker: a lone worker leases the longest runs of
# shards (10, 5, 3, 1 and 1 of 20), so it is the shape that holds a report
# assembled from multi-shard completions to the parent's bytes. The
# fixed-window shape costs ~20 ms an injection and awan's default
# design has 1,600 bits, so each shape sets its own -flips.
PARENT ?= HEAD
CMP_FLAGS = -json -progress=false -seed 7
CMP_SHAPES = \
	-flips 600| \
	-flips 73701| \
	-flips 600 -sticky| \
	-flips 600 -sticky -duration 200| \
	-flips 600 -span 3| \
	-flips 600 -raw -no-recovery| \
	-flips 600 -nest| \
	-flips 600 -nest -unit NEST| \
	-flips 100 -fixed-window -window 20000| \
	-flips 600 -workers 4| \
	-flips 600 -dist 4| \
	-flips 500 -dist 1 -shard-size 25| \
	-flips 600 -margin 5| \
	-flips 600 -margin 5 -stop-on-converge| \
	-flips 3000 -margin 5 -stop-on-converge| \
	-flips 600 -margin 5 -stop-on-converge -allocate neyman| \
	-flips 600 -dist 4 -margin 5 -stop-on-converge -allocate neyman| \
	-flips 3000 -dist 4 -margin 5 -stop-on-converge| \
	-flips 600 -type REGFILE| \
	-flips 600 -type GPTR| \
	-flips 600 -type MODE -sticky| \
	-flips 600 -sticky -unit Core| \
	-flips 400 -backend awan| \
	-flips 400 -backend awan -lanes 1| \
	-flips 400 -backend awan -allocate neyman
BEAM_SHAPES = \
	-strikes 600| \
	-strikes 400 -nest| \
	-strikes 300 -array-weight 0.5| \
	-calibrate -flips 400
# TEXT_SHAPES run sfi without -json: the text report (String, DetailedString,
# the -units/-types tables) is a surface of its own. Its summary lines
# (campaign:, restore:, batch:, observe:, detect:, latency:) are metrics of
# the run, not the report: wall times and rates move between two runs of one
# binary, and under a stop observe:/detect: also count the injections that ran
# past the cut, so they are dropped before the compare.
TEXT_FLAGS = -progress=false -seed 7
TEXT_SHAPES = \
	-flips 600 -margin 5 -detail -units -types| \
	-flips 3000 -workers 4 -margin 5 -stop-on-converge -units| \
	-flips 600 -allocate neyman -margin 5 -stop-on-converge -detail -types| \
	-flips 400 -backend awan -detail -units -types| \
	-flips 600 -dist 4 -detail
SUMMARY_LINES = ^(campaign|restore|batch|observe|detect|latency)(:| finished)
# table2 (a campaign beside a beam run and the chi-square between them) and
# fig4 (Fig. 3's per-unit fractions weighted by population) print what the
# other tables do not; table1 is the one surface that prints the core's
# measured CPI (workload.MeasureCPI), and sfi-avp the one that checks every
# barrier's register signature on a fault-free core.
TABLE_SHAPES = fig2 fig3 fig4 fig5 table1 table2 table3
# EXAMPLES are the examples/* programs, each a fixed campaign printed through
# the public API; each prints the same bytes on every run.
EXAMPLES = beamcal checkers latchtypes macroinject periphery quickstart unitstudy
cmp:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/parent"; git archive $(PARENT) | tar -x -C "$$tmp/parent"; \
	(cd "$$tmp/parent" && $(GO) build -o "$$tmp/parent-bin/" ./cmd/sfi ./cmd/sfi-beam ./cmd/sfi-tables ./cmd/sfi-avp ./examples/...); \
	$(GO) build -o "$$tmp/tree-bin/" ./cmd/sfi ./cmd/sfi-beam ./cmd/sfi-tables ./cmd/sfi-avp ./examples/...; \
	echo '$(CMP_SHAPES)' | tr '|' '\n' | while read -r shape; do \
		"$$tmp/parent-bin/sfi" $(CMP_FLAGS) $$shape > "$$tmp/parent.out"; \
		"$$tmp/tree-bin/sfi" $(CMP_FLAGS) $$shape > "$$tmp/tree.out"; \
		cmp -s "$$tmp/parent.out" "$$tmp/tree.out" || { echo "cmp: sfi $(CMP_FLAGS) $$shape differs from $(PARENT)"; exit 1; }; \
		echo "same  sfi $(CMP_FLAGS) $$shape"; \
	done; \
	echo '$(TEXT_SHAPES)' | tr '|' '\n' | while read -r shape; do \
		"$$tmp/parent-bin/sfi" $(TEXT_FLAGS) $$shape | grep -Ev '$(SUMMARY_LINES)' > "$$tmp/parent.out"; \
		"$$tmp/tree-bin/sfi" $(TEXT_FLAGS) $$shape | grep -Ev '$(SUMMARY_LINES)' > "$$tmp/tree.out"; \
		cmp -s "$$tmp/parent.out" "$$tmp/tree.out" || { echo "cmp: sfi $(TEXT_FLAGS) $$shape differs from $(PARENT)"; exit 1; }; \
		echo "same  sfi $(TEXT_FLAGS) $$shape"; \
	done; \
	echo '$(BEAM_SHAPES)' | tr '|' '\n' | while read -r shape; do \
		"$$tmp/parent-bin/sfi-beam" $$shape | tail -n +2 > "$$tmp/parent.out"; \
		"$$tmp/tree-bin/sfi-beam" $$shape | tail -n +2 > "$$tmp/tree.out"; \
		cmp -s "$$tmp/parent.out" "$$tmp/tree.out" || { echo "cmp: sfi-beam $$shape differs from $(PARENT)"; exit 1; }; \
		echo "same  sfi-beam $$shape"; \
	done; \
	for exp in $(TABLE_SHAPES); do \
		"$$tmp/parent-bin/sfi-tables" -exp $$exp | grep -v '^(.* in .*)$$' > "$$tmp/parent.out"; \
		"$$tmp/tree-bin/sfi-tables" -exp $$exp | grep -v '^(.* in .*)$$' > "$$tmp/tree.out"; \
		cmp -s "$$tmp/parent.out" "$$tmp/tree.out" || { echo "cmp: sfi-tables -exp $$exp differs from $(PARENT)"; exit 1; }; \
		echo "same  sfi-tables -exp $$exp"; \
	done; \
	"$$tmp/parent-bin/sfi-avp" > "$$tmp/parent.out"; \
	"$$tmp/tree-bin/sfi-avp" > "$$tmp/tree.out"; \
	cmp -s "$$tmp/parent.out" "$$tmp/tree.out" || { echo "cmp: sfi-avp differs from $(PARENT)"; exit 1; }; \
	echo "same  sfi-avp"; \
	for ex in $(EXAMPLES); do \
		"$$tmp/parent-bin/$$ex" > "$$tmp/parent.out"; \
		"$$tmp/tree-bin/$$ex" > "$$tmp/tree.out"; \
		cmp -s "$$tmp/parent.out" "$$tmp/tree.out" || { echo "cmp: examples/$$ex differs from $(PARENT)"; exit 1; }; \
		echo "same  examples/$$ex"; \
	done

# ci holds no wall-clock gate: what observability, lanes, the image cache,
# the adaptive stop and Neyman allocation must cost or save is pinned by
# counts in the owning packages' tests (DESIGN.md "Gates"), and speed is
# judged by `go run ./benchmark -compare` between two commits.
ci: vet fmt build bins test race fuzz smoke
