// Command sfi-coord runs the coordinator side of a distributed
// fault-injection campaign: it shards the campaign into deterministic
// injection-index ranges, leases shards to sfi-worker processes over HTTP,
// re-queues shards whose workers die, journals completed shards for
// restart, and prints the merged report — identical to a single-process
// run of the same campaign — when the last shard lands.
//
// While the campaign runs the lease address also serves the fleet view:
// GET /v1/status (per-shard state machine, per-worker rates, live totals,
// the stop rule's sealed-counts evaluation, latency attribution),
// GET /v1/trace (the campaign's causal span tree — coordinator shard spans
// plus the worker-side spans carried home on shard completions — with the
// critical path marked) and GET /metrics (live fleet-wide Prometheus
// metrics, merged from worker heartbeat snapshots and completed-shard
// snapshots, plus per-layer span histograms).
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
//	sfi-coord -addr :8430 -flips 20000 -sticky -duration 200 -raw
//	                                    # any campaign sfi runs: the flags are shared
//
// Then, on each machine:
//
//	sfi-worker -coord http://coordhost:8430
package main

import (
	"context"
	"encoding/json"
	"errors"
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
	// The campaign's own flags are dist.CampaignFlags', shared with sfi and
	// sfi submit; the rest are the coordinator's transport, journal and
	// observability.
	spec := dist.CampaignFlags(flag.CommandLine, 10000)
	var a coordArgs
	addr := flag.String("addr", ":8430", "listen address for the worker/lease API and fleet views")
	flag.BoolVar(&a.keep, "keep-results", false, "retain per-injection results in the merged report")
	flag.IntVar(&a.shardSize, "shard-size", 0, "injections per shard (0 = ~64 shards)")
	flag.DurationVar(&a.ttl, "lease-ttl", 10*time.Second, "shard lease TTL; workers heartbeat at TTL/3")
	flag.IntVar(&a.attempts, "max-attempts", 3, "lease grants per shard before the campaign fails")
	flag.StringVar(&a.journal, "journal", "", "completed-shard journal for coordinator restart ('' = none)")
	flag.StringVar(&a.shardTrace, "shard-trace", "auto", "shard-lifecycle trace JSONL file ('auto' = journal + .trace when -journal is set, '' = off)")
	flag.BoolVar(&a.jsonOut, "json", false, "emit the merged report as JSON")
	flag.BoolVar(&a.progress, "progress", true, "live fleet progress line on stderr")
	flag.StringVar(&a.logLevel, "log-level", "info", "event log level (debug, info, warn, error)")
	flag.BoolVar(&a.logText, "log-text", false, "logfmt-style text event logs instead of JSON")
	flag.StringVar(&a.httpAddr, "http", "", "extra debug listener: /debug/vars (expvar) and /debug/pprof")
	flag.BoolVar(&a.quiet, "quiet", false, "no progress line, warnings and errors only")
	flag.Parse()

	var err error
	if a.spec, err = spec(); err == nil {
		err = run(*addr, a)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfi-coord:", err)
		os.Exit(1)
	}
}

// coordArgs is one sfi-coord invocation: the campaign (spec, as the shared
// campaign flags spell it) and the coordinator's own flags.
type coordArgs struct {
	spec       dist.CampaignSpec
	keep       bool
	shardSize  int
	ttl        time.Duration
	attempts   int
	journal    string
	shardTrace string
	jsonOut    bool
	progress   bool
	logLevel   string
	logText    bool
	httpAddr   string
	quiet      bool
}

func run(addr string, a coordArgs) (rerr error) {
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

	a.spec.KeepResults = a.keep
	cfg := dist.CoordConfig{
		Campaign:    a.spec,
		ShardSize:   a.shardSize,
		LeaseTTL:    a.ttl,
		MaxAttempts: a.attempts,
		Journal:     a.journal,
		Log:         log,
		// Campaign tracing is always on: spans are per-shard and per-batch,
		// so a whole campaign costs a few thousand ring entries.
		Tracer: sfi.NewTracer(a.spec.Seed),
	}

	if a.shardTrace == "auto" {
		a.shardTrace = ""
		if a.journal != "" {
			a.shardTrace = a.journal + ".trace"
		}
	}
	if a.shardTrace != "" {
		sink, err := obs.OpenTraceFile(a.shardTrace, false, obs.TraceOptions{})
		if err != nil {
			return err
		}
		cfg.ShardTrace = sink
		// Closed on every return, once the coordinator is: a campaign that
		// fails or is stopped keeps its trail, the one -shard-trace is for.
		defer func() {
			if cerr := sink.Close(); cerr != nil {
				rerr = errors.Join(rerr, fmt.Errorf("shard trace write: %w", cerr))
				return
			}
			log.Info("shard trace written", "path", a.shardTrace, "events", sink.Recorded())
		}()
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
		"endpoints", "POST /v1/lease, GET /v1/status, GET /v1/trace, GET /metrics")

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
	drawn := make(chan struct{})
	go func() {
		if a.progress {
			coord.ShowProgress(ctx, os.Stderr, 2*time.Second)
			fmt.Fprintln(os.Stderr)
		}
		close(drawn)
	}()

	rep, err := coord.Wait(ctx)
	<-drawn // Wait and ShowProgress end together: at the campaign's end or ctx's
	if err != nil {
		return err
	}
	log.Info("campaign merged", "injections", rep.Total,
		"elapsed", time.Since(start).Round(time.Millisecond).String(),
		"shards", coord.Status().Shards)
	if doc := coord.TraceDoc(); doc != nil && doc.Root != nil {
		at := doc.Attribution
		log.Info("latency attribution", "total_ms", int64(at.TotalMs),
			"run_ms", int64(at.RunMs), "merge_ms", int64(at.MergeMs),
			"other_ms", int64(at.OtherMs), "spans", doc.Spans, "trace", doc.TraceID)
	}
	if d := coord.StopDecision(); d != nil {
		log.Info("converged early", "injections", d.Total, "budget", a.spec.Flips,
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
