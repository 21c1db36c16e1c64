// Command sfi runs statistical fault-injection campaigns on the emulated
// P6LITE core: random whole-core campaigns, targeted per-unit / per-type /
// per-macro campaigns, sticky-mode injection, raw (checkers-masked) mode,
// cause-effect trace dumps, and a full observability surface: live progress,
// structured JSONL injection traces, Prometheus/expvar metrics and a pprof
// debug listener.
//
// Examples:
//
//	sfi -flips 5000                        # whole-core random campaign
//	sfi -flips 2000 -unit LSU              # target the load-store unit
//	sfi -flips 1000 -type MODE             # target the MODE scan rings
//	sfi -flips 500  -macro lsu.stq         # target a macro by name prefix
//	sfi -flips 1000 -sticky -duration 200  # 200-cycle stuck-at faults
//	sfi -flips 1000 -raw                   # mask every hardware checker
//	sfi -flips 300  -causes                # print cause-effect traces
//	sfi -flips 500  -backend awan          # gate-level checked-ALU campaign
//	sfi -flips 5000 -trace inj.jsonl       # one JSONL event per injection
//	sfi -flips 5000 -metrics -             # Prometheus text dump to stdout
//	sfi -flips 50000 -http :6060           # expvar+pprof+/metrics while running
//	sfi -flips 5000 -dist 4                # distributed smoke: in-process
//	                                       # coordinator + 4 loopback workers
//	sfi -flips 50000 -margin 1 -stop-on-converge
//	                                       # adaptive: stop once every outcome
//	                                       # class's 95% CI is ≤1 point wide
//
// Campaign-service verbs against a running sfi-server:
//
//	sfi submit -server http://host:8440 -flips 100000 -margin 1 -stop-on-converge
//	sfi submit -server http://host:8440 -flips 50000 -sticky -allocate neyman
//	sfi status -server http://host:8440 [id]
//	sfi report -server http://host:8440 <id>
//	sfi cancel -server http://host:8440 <id>
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"sfi"
	"sfi/internal/dist"
	"sfi/internal/obs"
)

func main() {
	// Campaign-service verbs (submit/status/report/cancel against a
	// running sfi-server) dispatch before the classic local-campaign
	// flag path.
	if handled, err := clientMain(os.Args[1:]); handled {
		if err != nil {
			fmt.Fprintln(os.Stderr, "sfi:", err)
			os.Exit(1)
		}
		return
	}
	// The campaign's own flags are dist.CampaignFlags', shared with sfi-coord
	// and sfi submit; the rest say where this process runs it and what it
	// prints.
	spec := dist.CampaignFlags(flag.CommandLine, 1000)
	var a campaignArgs
	flag.IntVar(&a.workers, "workers", 0, "concurrent model copies (0 = GOMAXPROCS)")
	flag.BoolVar(&a.detail, "detail", false, "print confidence intervals, latency stats and checker coverage")
	flag.BoolVar(&a.jsonOut, "json", false, "emit the report as JSON")
	flag.BoolVar(&a.causes, "causes", false, "print cause-effect traces of non-vanished injections")
	flag.BoolVar(&a.units, "units", false, "also print the per-unit breakdown")
	flag.BoolVar(&a.types, "types", false, "also print the per-latch-type breakdown")

	// Distributed smoke mode.
	flag.IntVar(&a.dist, "dist", 0, "run the campaign through an in-process coordinator with this many loopback workers (exercises the sfi-coord/sfi-worker protocol)")
	flag.IntVar(&a.shardSize, "shard-size", 0, "injections per shard in -dist mode (0 = ~64 shards)")

	// Observability.
	flag.StringVar(&a.trace, "trace", "", "write one JSONL lifecycle event per injection to this file")
	flag.IntVar(&a.traceSample, "trace-sample", 1, "record every Nth injection in the -trace stream")
	flag.StringVar(&a.metrics, "metrics", "", "write a Prometheus-style metrics dump to this file ('-' = stdout)")
	flag.StringVar(&a.httpAddr, "http", "", "serve /debug/vars (expvar), /debug/pprof, /metrics and /progress on this address while the campaign runs")
	flag.BoolVar(&a.progress, "progress", true, "render live progress to stderr")
	flag.Parse()

	var err error
	if a.spec, err = spec(); err == nil {
		err = run(a)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfi:", err)
		os.Exit(1)
	}
}

// campaignArgs is one sfi invocation: the campaign (spec, as the shared
// campaign flags spell it) and this command's own placement, output and
// observability flags.
type campaignArgs struct {
	spec dist.CampaignSpec

	workers      int
	detail       bool
	jsonOut      bool
	causes       bool
	units, types bool

	dist      int
	shardSize int

	trace       string
	traceSample int
	metrics     string
	httpAddr    string
	progress    bool
}

func run(a campaignArgs) (rerr error) {
	// -dist returns through runDist, which wires none of these: say so
	// instead of exiting 0 with nothing written or served.
	if a.dist > 0 {
		for _, f := range []struct {
			set         bool
			flag, where string
		}{
			{a.trace != "", "-trace", "sfi-worker -trace (per worker) or sfi-coord -shard-trace (sampled per shard)"},
			{a.traceSample > 1, "-trace-sample", "sfi-worker -trace-sample"},
			{a.httpAddr != "", "-http", "sfi-worker -http (per worker) or the coordinator's own /metrics and /v1/status"},
		} {
			if f.set {
				return fmt.Errorf("%s has no effect with -dist: in a fleet that output is %s", f.flag, f.where)
			}
		}
	}
	a.spec.KeepResults = true
	a.spec.ShardWorkers = a.workers

	// Distributed smoke mode: run the same campaign through an in-process
	// coordinator and N loopback workers — the full sfi-coord/sfi-worker
	// lease protocol over real HTTP, one process.
	if a.dist > 0 {
		rep, elapsed, doc, err := runDist(a)
		if err != nil {
			return err
		}
		return emit(a, rep, elapsed, doc)
	}
	// The local run is the spec's whole-campaign configuration: what a
	// worker builds for a shard, without the shard range.
	cfg, err := a.spec.CampaignConfig(nil)
	if err != nil {
		return err
	}

	// Observability: metrics are always collected (the end-of-run summary
	// is rendered from the snapshot; measured overhead is <5%, see
	// EXPERIMENTS.md), and so are campaign spans — they are per-batch, not
	// per-injection, so the ring costs microseconds per campaign and feeds
	// the end-of-run latency attribution line.
	cfg.Obs.Metrics = true
	tracer := sfi.NewTracer(cfg.Seed)
	cfg.Obs.Tracer = tracer

	if a.trace != "" {
		sink, err := obs.OpenTraceFile(a.trace, false, obs.TraceOptions{Sample: a.traceSample})
		if err != nil {
			return err
		}
		cfg.Obs.Trace = sink
		// Mirror the campaign spans into the same JSONL stream (span lines
		// carry trace_id/span fields, injection events carry seq/outcome —
		// the two record shapes coexist).
		tracer.SetSink(sink)
		// Closed on every return: a campaign that fails keeps its trace.
		defer func() {
			if cerr := sink.Close(); cerr != nil {
				rerr = errors.Join(rerr, fmt.Errorf("trace write: %w", cerr))
				return
			}
			fmt.Fprintf(os.Stderr, "trace: %d events to %s (%d sampled out)\n",
				sink.Recorded(), a.trace, sink.Dropped())
		}()
	}

	// The progress line and the debug views read the campaign's Live handle.
	live := new(sfi.Live)
	cfg.Obs.Live = live

	if a.httpAddr != "" {
		ln, err := net.Listen("tcp", a.httpAddr)
		if err != nil {
			return err
		}
		// expvar's /debug/vars and pprof's /debug/pprof are registered on
		// the default mux by their package inits; add the campaign views.
		sfi.PublishMetricsExpvar("sfi", func() *sfi.MetricsSnapshot { return live.Progress().Metrics })
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			p := live.Progress()
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			p.Metrics.WritePrometheus(w, "sfi")
			sfi.WriteConvergencePrometheus(w, "sfi", p.Convergence)
		})
		http.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(live.Progress())
		})
		go http.Serve(ln, nil)
		fmt.Fprintf(os.Stderr, "debug listener on http://%s (/debug/vars, /debug/pprof, /metrics, /progress)\n",
			ln.Addr())
	}

	drawn := func() {}
	if a.progress {
		drawn = showProgress(live)
	}
	start := time.Now()
	rep, err := sfi.RunCampaign(cfg)
	elapsed := time.Since(start)
	drawn()
	if err != nil {
		return err
	}
	return emit(a, rep, elapsed, tracer.Doc())
}

// emit renders a finished campaign report (shared by the local and
// distributed paths). doc, when non-nil, is the campaign's span tree and
// feeds the latency-attribution summary line.
func emit(a campaignArgs, rep *sfi.Report, elapsed time.Duration, doc *sfi.TraceDoc) error {
	if a.metrics != "" {
		out := os.Stdout
		if a.metrics != "-" {
			f, err := os.Create(a.metrics)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := rep.Metrics.WritePrometheus(out, "sfi"); err != nil {
			return err
		}
		if err := sfi.WriteConvergencePrometheus(out, "sfi", rep.Convergence); err != nil {
			return err
		}
	}
	if a.jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}

	// A fleet runs every worker's copies at once; the report counts one
	// shard's.
	copies := rep.Workers
	if a.dist > 0 {
		copies *= a.dist
	}
	printSummary(rep, elapsed, doc, copies)
	if a.detail {
		fmt.Print(rep.DetailedString()) // includes the convergence line
	} else {
		fmt.Print(rep)
		printConvergence(rep.Convergence)
	}

	est := rep.Estimate()
	if a.units {
		fmt.Println("\nper unit:")
		for _, u := range reportUnits(est.ByUnit) {
			fmt.Printf("  %-5s", u)
			printRows(est.ByUnit[u])
		}
	}
	if a.types {
		// Only the types the report saw: a type the filter left out would
		// read as a measured 0.00%.
		fmt.Println("\nper latch type:")
		for _, t := range sfi.LatchTypes {
			if rows, ok := est.ByType[t.String()]; ok {
				fmt.Printf("  %-8v", t)
				printRows(rows)
			}
		}
	}
	if a.causes {
		fmt.Println("\ncause-effect traces:")
		fmt.Print(sfi.TraceReport(rep, 50))
	}
	return nil
}

// printRows ends a -units/-types line with one population's fractions.
func printRows(rows []sfi.ClassInterval) {
	for _, ci := range rows {
		fmt.Printf(" %s %6.2f%%", ci.Class, 100*ci.Fraction)
	}
	fmt.Println()
}

// printConvergence prints a report's convergence line, if it carries an
// evaluation (sfi -margin, sfi report).
func printConvergence(c *sfi.Convergence) {
	if c == nil {
		return
	}
	verdict := "converged"
	if !c.Converged {
		verdict = "NOT converged"
	}
	fmt.Printf("convergence: %s at n=%d — widest margin %s %.2f%% (target %.2f%% at %.0f%% confidence)\n",
		verdict, c.Total, c.WidestClass, 100*c.WidestWidth,
		100*c.TargetMargin, 100*c.Confidence)
}

// reportUnits lists the units to render in the -units breakdown: the
// paper's p6lite ordering for units the report actually saw, then any
// backend-specific units (e.g. awan's ALU bank) in sorted order.
func reportUnits(byUnit map[string][]sfi.ClassInterval) []string {
	var out, extra []string
	for _, u := range sfi.Units {
		if _, ok := byUnit[u]; ok {
			out = append(out, u)
		}
	}
	for u := range byUnit {
		if !slices.Contains(sfi.Units, u) {
			extra = append(extra, u)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// runDist executes the campaign through the distributed subsystem: an
// in-process coordinator on a loopback listener and a.dist workers driving
// the real lease/heartbeat/complete protocol over HTTP. The merged report
// is identical (same seed → same outcomes) to the local path's.
func runDist(a campaignArgs) (*sfi.Report, time.Duration, *sfi.TraceDoc, error) {
	spec := a.spec
	// Split the machine's cores across the loopback workers unless the
	// user pinned a per-shard worker count.
	if spec.ShardWorkers <= 0 {
		spec.ShardWorkers = max(runtime.GOMAXPROCS(0)/a.dist, 1)
	}
	coord, err := dist.NewCoordinator(dist.CoordConfig{
		Campaign:  spec,
		ShardSize: a.shardSize,
		Tracer:    sfi.NewTracer(spec.Seed),
	})
	if err != nil {
		return nil, 0, nil, err
	}
	defer coord.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, nil, err
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "distributed smoke: coordinator on http://%s, %d loopback workers × %d model copies\n",
		ln.Addr(), a.dist, spec.ShardWorkers)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerErr := make(chan error, a.dist)
	for i := 0; i < a.dist; i++ {
		go func(i int) {
			workerErr <- dist.RunWorker(ctx, dist.WorkerConfig{
				Coordinator: "http://" + ln.Addr().String(),
				ID:          fmt.Sprintf("loopback-%d", i),
				PollEvery:   50 * time.Millisecond,
			})
		}(i)
	}
	start := time.Now()
	drawn := make(chan struct{})
	if a.progress {
		go func() {
			coord.ShowProgress(ctx, os.Stderr, 500*time.Millisecond)
			close(drawn)
		}()
	}

	rep, err := coord.Wait(ctx)
	elapsed := time.Since(start)
	if a.progress {
		<-drawn // the finished campaign's last line
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return nil, 0, nil, err
	}
	if d := coord.StopDecision(); d != nil {
		fmt.Fprintf(os.Stderr, "converged early: %d of %d injections (widest class %s at %.2f%%, target %.2f%%)\n",
			d.Total, spec.Flips, d.WidestClass, 100*d.WidestWidth, 100*d.TargetMargin)
	}
	// Workers exit on their own once the coordinator answers 410.
	for i := 0; i < a.dist; i++ {
		if werr := <-workerErr; werr != nil {
			return nil, 0, nil, werr
		}
	}
	return rep, elapsed, coord.TraceDoc(), nil
}

// showProgress redraws the campaign's progress line on stderr in place
// every 500ms until the returned function is called, which draws it once
// more and ends it. The line is Progress.Line, as on the coordinator's.
func showProgress(live *sfi.Live) (drawn func()) {
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for last := false; !last; {
			select {
			case <-stop:
				last = true
			case <-t.C:
			}
			fmt.Fprintf(os.Stderr, "\r%-78s", live.Progress().Line())
		}
		fmt.Fprintln(os.Stderr)
		close(stopped)
	}()
	return func() { close(stop); <-stopped }
}

// printSummary renders the end-of-run summary from the campaign's metrics
// snapshot and, when a span tree exists, its latency attribution. copies is
// the number of model copies that ran the campaign at once, what busy time
// is divided by.
func printSummary(rep *sfi.Report, elapsed time.Duration, doc *sfi.TraceDoc, copies int) {
	s := rep.Metrics
	if s == nil {
		fmt.Printf("campaign finished in %v (%d injections)\n",
			elapsed.Round(time.Millisecond), rep.Total)
		return
	}
	util := 0.0
	if copies > 0 && elapsed > 0 {
		util = float64(s.BusyNs) / (float64(copies) * float64(elapsed.Nanoseconds()))
	}
	// Rates are labeled explicitly: with a bit-parallel backend one model
	// pass retires many injections, so injections/s and batches/s differ by
	// the mean lane occupancy.
	// An adaptive stop drops the jobs that finished past the converged
	// prefix: the rate counts them, the report does not.
	past := ""
	if ran := int(s.Injections); ran > rep.Total {
		past = fmt.Sprintf(" (%d more ran past the stop)", ran-rep.Total)
	}
	fmt.Printf("campaign: %d injections%s in %v — %.1f injections/s, %d workers (%.0f%% busy)\n",
		rep.Total, past, elapsed.Round(time.Millisecond),
		float64(s.Injections)/elapsed.Seconds(), copies, 100*util)
	fmt.Printf("restore:  p50 %v  p95 %v  (%d phase reloads)\n",
		time.Duration(s.RestoreNs.Quantile(0.5)).Round(time.Microsecond),
		time.Duration(s.RestoreNs.Quantile(0.95)).Round(time.Microsecond),
		s.Restores)
	if s.Batches > 0 {
		fmt.Printf("batch:    %d passes — %.1f batches/s, mean %.1f lanes/pass (p95 %d)\n",
			s.Batches, float64(s.Batches)/elapsed.Seconds(),
			s.LaneOccupancy.Mean(), s.LaneOccupancy.Quantile(0.95))
	}
	fmt.Printf("observe:  p50 %d  p95 %d cycles/injection  (%d cycles total)\n",
		s.PropagateCycles.Quantile(0.5), s.PropagateCycles.Quantile(0.95), s.Cycles)
	if s.DetectCycles.Count > 0 {
		fmt.Printf("detect:   p50 %d  p95 %d cycles to first checker  (%d detected)\n",
			s.DetectCycles.Quantile(0.5), s.DetectCycles.Quantile(0.95),
			s.DetectCycles.Count)
	}
	if doc != nil && doc.Root != nil {
		at := doc.Attribution
		fmt.Printf("latency:  %.0fms total — run %.0fms, merge %.0fms, other %.0fms (critical path over %d spans)\n",
			at.TotalMs, at.RunMs+at.ImageMs+at.QueueMs, at.MergeMs, at.OtherMs, doc.Spans)
	}
}
