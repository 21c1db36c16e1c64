// Command sfi-coord runs the coordinator side of a distributed
// fault-injection campaign: it shards the campaign into deterministic
// injection-index ranges, leases shards to sfi-worker processes over HTTP,
// re-queues shards whose workers die, journals completed shards for
// restart, and prints the merged report — identical to a single-process
// run of the same campaign — when the last shard lands.
//
// While the campaign runs the lease address also serves the fleet view:
// GET /v1/status (per-shard state machine, per-worker rates, live totals,
// latency attribution), GET /v1/trace (the campaign's causal span tree —
// coordinator shard spans plus the worker-side spans carried home on shard
// completions — with the critical path marked), GET /metrics (live
// fleet-wide Prometheus metrics, merged from worker heartbeat snapshots and
// completed-shard snapshots, plus per-layer span histograms) and
// GET /progress.
// Lifecycle events (lease grants, requeues, completions) go to stderr as
// structured JSON logs; -shard-trace records them as JSONL for post-hoc
// forensics.
//
// Examples:
//
//	sfi-coord -addr :8430 -flips 100000                 # whole-core campaign
//	sfi-coord -addr :8430 -flips 20000 -unit LSU        # targeted
//	sfi-coord -addr :8430 -flips 100000 -journal c.jnl  # resumable + shard trace
//	sfi-coord -addr :8430 -flips 20000 -backend awan    # gate-level fleet
//	sfi-coord -addr :8430 -flips 200000 -margin 1 -stop-on-converge
//	                                    # adaptive: stop when every class CI ≤ 1 point
//
// Then, on each machine:
//
//	sfi-worker -coord http://coordhost:8430
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sfi"
	"sfi/internal/dist"
	"sfi/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", ":8430", "listen address for the worker/lease API and fleet views")
		flips     = flag.Int("flips", 10000, "number of latch bits to inject")
		seed      = flag.Uint64("seed", 1, "sampling seed")
		backend   = flag.String("backend", "", "engine backend workers inject into (p6lite, awan; empty = p6lite)")
		lanes     = flag.Int("lanes", 0, "simulation-lane word width for batch-capable backends (awan): 64 packs 63 faults per model pass, 1 forces the scalar path, 0 = backend maximum")
		unit      = flag.String("unit", "", "target one unit")
		typ       = flag.String("type", "", "target one latch type")
		macro     = flag.String("macro", "", "target latch groups by name prefix")
		keep      = flag.Bool("keep-results", false, "retain per-injection results in the merged report")
		shardSize = flag.Int("shard-size", 0, "injections per shard (0 = ~64 shards)")

		// Adaptive statistical stopping rule (evaluated coordinator-side
		// over sealed completed-shard counts).
		margin     = flag.Float64("margin", 0, "evaluate per-class confidence intervals and report convergence once every outcome class's interval is at most this many percentage points wide (0 = off)")
		confidence = flag.Float64("confidence", 0.95, "confidence level for the -margin intervals")
		stopConv   = flag.Bool("stop-on-converge", false, "seal the campaign and cancel outstanding leases as soon as the -margin rule converges over completed shards")
		allocate   = flag.String("allocate", "uniform", "budget allocation across unit×latch-type sampling strata: uniform (pooled sample) or neyman (per-epoch Neyman re-allocation; with -margin, every stratum must converge)")
		epochs     = flag.Int("alloc-epochs", 0, "allocation epochs a -allocate neyman campaign re-plans at (0 = default)")
		ttl        = flag.Duration("lease-ttl", 10*time.Second, "shard lease TTL; workers heartbeat at TTL/3")
		attempts   = flag.Int("max-attempts", 3, "lease grants per shard before the campaign fails")
		journal    = flag.String("journal", "", "completed-shard journal for coordinator restart ('' = none)")
		shardTr    = flag.String("shard-trace", "auto", "shard-lifecycle trace JSONL file ('auto' = journal + .trace when -journal is set, '' = off)")
		jsonOut    = flag.Bool("json", false, "emit the merged report as JSON")
		progress   = flag.Bool("progress", true, "live fleet progress line on stderr")
		logLevel   = flag.String("log-level", "info", "event log level (debug, info, warn, error)")
		logText    = flag.Bool("log-text", false, "logfmt-style text event logs instead of JSON")
		httpAddr   = flag.String("http", "", "extra debug listener: /debug/vars (expvar) and /debug/pprof")
		quiet      = flag.Bool("quiet", false, "no progress line, warnings and errors only")
	)
	flag.Parse()

	if err := run(*addr, coordArgs{
		flips: *flips, seed: *seed, backend: *backend, lanes: *lanes, unit: *unit, typ: *typ, macro: *macro,
		keep: *keep, shardSize: *shardSize, ttl: *ttl, attempts: *attempts,
		margin: *margin, confidence: *confidence, stopConv: *stopConv,
		allocate: *allocate, epochs: *epochs,
		journal: *journal, shardTrace: *shardTr, jsonOut: *jsonOut,
		progress: *progress, logLevel: *logLevel, logText: *logText,
		httpAddr: *httpAddr, quiet: *quiet,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sfi-coord:", err)
		os.Exit(1)
	}
}

type coordArgs struct {
	flips            int
	seed             uint64
	backend          string
	lanes            int
	unit, typ, macro string
	keep             bool
	shardSize        int
	margin           float64
	confidence       float64
	stopConv         bool
	allocate         string
	epochs           int
	ttl              time.Duration
	attempts         int
	journal          string
	shardTrace       string
	jsonOut          bool
	progress         bool
	logLevel         string
	logText          bool
	httpAddr         string
	quiet            bool
}

func run(addr string, a coordArgs) error {
	filter, err := dist.FilterFromFlags(a.unit, a.typ, a.macro)
	if err != nil {
		return err
	}
	level, err := obs.ParseLogLevel(a.logLevel)
	if err != nil {
		return err
	}
	if a.quiet {
		a.progress = false
		if level < slog.LevelWarn {
			level = slog.LevelWarn
		}
	}
	log := obs.NewLogger(os.Stderr, level, !a.logText)

	runner := sfi.DefaultRunnerConfig()
	if a.backend != "" {
		known := false
		for _, b := range sfi.Backends() {
			if b == a.backend {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("unknown backend %q (have %v)", a.backend, sfi.Backends())
		}
		runner.Backend = a.backend
	}
	if a.lanes > 0 {
		runner.BatchLanes = a.lanes
	}

	var stopRule sfi.StopConfig
	if a.margin > 0 {
		stopRule = sfi.StopConfig{
			TargetMargin:   a.margin / 100,
			Confidence:     a.confidence,
			StopOnConverge: a.stopConv,
		}
	} else if a.stopConv {
		return fmt.Errorf("-stop-on-converge needs a -margin")
	}

	// "uniform" normalizes to the zero AllocConfig so uniform campaigns'
	// wire specs and journal headers stay byte-identical to pre-allocation
	// versions.
	var alloc sfi.AllocConfig
	if a.allocate != "" && a.allocate != sfi.AllocUniform {
		alloc = sfi.AllocConfig{Mode: a.allocate, Epochs: a.epochs}
	}

	cfg := dist.CoordConfig{
		Campaign: dist.CampaignSpec{
			Runner:      runner,
			Seed:        a.seed,
			Flips:       a.flips,
			Filter:      filter,
			KeepResults: a.keep,
			Stop:        stopRule,
			Alloc:       alloc,
		},
		ShardSize:   a.shardSize,
		LeaseTTL:    a.ttl,
		MaxAttempts: a.attempts,
		Journal:     a.journal,
		Log:         log,
		// Campaign tracing is always on: spans are per-shard and per-batch,
		// so a whole campaign costs a few thousand ring entries.
		Tracer: sfi.NewTracer(a.seed),
	}

	if a.shardTrace == "auto" {
		a.shardTrace = ""
		if a.journal != "" {
			a.shardTrace = a.journal + ".trace"
		}
	}
	var traceFlush func() error
	if a.shardTrace != "" {
		f, err := os.Create(a.shardTrace)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		sink := obs.NewTraceSink(bw, obs.TraceOptions{})
		cfg.ShardTrace = sink
		traceFlush = func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			if err := sink.Err(); err != nil {
				return fmt.Errorf("shard trace write: %w", err)
			}
			log.Info("shard trace written", "path", a.shardTrace, "events", sink.Recorded())
			return nil
		}
	}

	coord, err := dist.NewCoordinator(cfg)
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	// Graceful drain (runs before the deferred coord.Close by LIFO): let
	// in-flight /v1/complete posts land before the journal is sealed.
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		srv.Shutdown(sctx) //nolint:errcheck // past the deadline Close semantics apply
	}()
	log.Info("coordinator listening", "addr", ln.Addr().String(),
		"endpoints", "POST /v1/lease, GET /v1/status, GET /v1/trace, GET /progress, GET /metrics")

	if a.httpAddr != "" {
		dln, err := net.Listen("tcp", a.httpAddr)
		if err != nil {
			return err
		}
		// expvar's /debug/vars and pprof's /debug/pprof are registered on
		// the default mux by their package inits; publish the live fleet
		// snapshot there too.
		sfi.PublishMetricsExpvar("sfi_fleet", coord.FleetSnapshot)
		go http.Serve(dln, nil)
		log.Info("debug listener", "addr", dln.Addr().String(),
			"endpoints", "/debug/vars, /debug/pprof")
	}

	// SIGTERM (the fleet-manager / container-runtime stop signal) drains
	// exactly like ^C: Wait returns, HTTP drains, the journal seals.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	if a.progress {
		go func() {
			t := time.NewTicker(2 * time.Second)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					p := coord.Progress()
					fp := sfi.ProgressFrom(coord.FleetSnapshot(), p.Total, 0, start)
					fp.Convergence = coord.Convergence()
					line := fmt.Sprintf("%s — shards %d/%d done, %d leased, %d requeued",
						fp.Line(), p.Done, p.Shards, p.Leased, p.Requeues)
					fmt.Fprintf(os.Stderr, "\r%-100s", line)
				}
			}
		}()
	}

	rep, err := coord.Wait(ctx)
	if a.progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	if traceFlush != nil {
		if err := traceFlush(); err != nil {
			return err
		}
	}
	log.Info("campaign merged", "injections", rep.Total,
		"elapsed", time.Since(start).Round(time.Millisecond).String(),
		"shards", coord.Progress().Shards)
	if doc := coord.TraceDoc(); doc != nil && doc.Root != nil {
		at := doc.Attribution
		log.Info("latency attribution", "total_ms", int64(at.TotalMs),
			"run_ms", int64(at.RunMs), "merge_ms", int64(at.MergeMs),
			"other_ms", int64(at.OtherMs), "spans", doc.Spans, "trace", doc.TraceID)
	}
	if d := coord.StopDecision(); d != nil {
		log.Info("converged early", "injections", d.Total, "budget", a.flips,
			"widest_class", d.WidestClass, "widest_width", d.WidestWidth,
			"target_margin", d.TargetMargin)
	}
	if a.jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Print(rep)
	return nil
}
