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
//	sfi status -server http://host:8440 [id]
//	sfi report -server http://host:8440 <id>
//	sfi cancel -server http://host:8440 <id>
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"sfi"
	"sfi/internal/dist"
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
	var (
		flips    = flag.Int("flips", 1000, "number of latch bits to inject")
		seed     = flag.Uint64("seed", 1, "sampling seed")
		backend  = flag.String("backend", "", "engine backend to inject into (p6lite, awan; empty = p6lite)")
		unit     = flag.String("unit", "", "target one unit (IFU, IDU, FXU, FPU, LSU, RUT, Core)")
		typ      = flag.String("type", "", "target one latch type (FUNC, REGFILE, GPTR, MODE)")
		macro    = flag.String("macro", "", "target latch groups by name prefix")
		sticky   = flag.Bool("sticky", false, "sticky (stuck-at) injection instead of toggle")
		duration = flag.Int("duration", 0, "sticky fault duration in cycles (0 = permanent)")
		span     = flag.Int("span", 1, "adjacent bits per injection (multi-bit upsets)")
		raw      = flag.Bool("raw", false, "mask every hardware checker (Table 3 Raw mode)")
		noRec    = flag.Bool("no-recovery", false, "disable the recovery unit")
		window   = flag.Int("window", 0, "observation window in cycles (0 = default)")
		fixed    = flag.Bool("fixed-window", false, "disable quiesce early exit (paper's fixed 500k-cycle style)")
		nest     = flag.Bool("nest", false, "enable the core periphery (L2 + memory controller)")
		workers  = flag.Int("workers", 0, "concurrent model copies (0 = GOMAXPROCS)")
		lanes    = flag.Int("lanes", 0, "simulation-lane word width for batch-capable backends (awan): 64 packs 63 faults per model pass, 1 forces the scalar path, 0 = backend maximum")
		detail   = flag.Bool("detail", false, "print confidence intervals, latency stats and checker coverage")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
		causes   = flag.Bool("causes", false, "print cause-effect traces of non-vanished injections")
		units    = flag.Bool("units", false, "also print the per-unit breakdown")
		types    = flag.Bool("types", false, "also print the per-latch-type breakdown")

		// Adaptive statistical stopping rule.
		margin     = flag.Float64("margin", 0, "evaluate per-class confidence intervals and report convergence once every outcome class's interval is at most this many percentage points wide (0 = off)")
		confidence = flag.Float64("confidence", 0.95, "confidence level for the -margin intervals")
		stopConv   = flag.Bool("stop-on-converge", false, "stop the campaign as soon as the -margin rule converges instead of running the whole -flips budget")
		allocate   = flag.String("allocate", "uniform", "budget allocation across unit×latch-type sampling strata: uniform (pooled sample) or neyman (per-epoch Neyman re-allocation; with -margin, every stratum must converge)")
		epochs     = flag.Int("alloc-epochs", 0, "allocation epochs a -allocate neyman campaign re-plans at (0 = default)")

		// Distributed smoke mode.
		distN     = flag.Int("dist", 0, "run the campaign through an in-process coordinator with this many loopback workers (exercises the sfi-coord/sfi-worker protocol)")
		shardSize = flag.Int("shard-size", 0, "injections per shard in -dist mode (0 = ~64 shards)")

		// Observability.
		trace    = flag.String("trace", "", "write one JSONL lifecycle event per injection to this file")
		traceSmp = flag.Int("trace-sample", 1, "record every Nth injection in the -trace stream")
		metrics  = flag.String("metrics", "", "write a Prometheus-style metrics dump to this file ('-' = stdout)")
		httpAddr = flag.String("http", "", "serve /debug/vars (expvar), /debug/pprof, /metrics and /progress on this address while the campaign runs")
		progress = flag.Bool("progress", true, "render live progress to stderr")
	)
	flag.Parse()

	if err := run(campaignArgs{
		flips: *flips, seed: *seed, backend: *backend, unit: *unit, typ: *typ, macro: *macro,
		sticky: *sticky, duration: *duration, span: *span, raw: *raw, noRec: *noRec,
		window: *window, fixed: *fixed, workers: *workers, lanes: *lanes, nest: *nest,
		detail: *detail, jsonOut: *jsonOut, causes: *causes, units: *units, types: *types,
		margin: *margin, confidence: *confidence, stopConv: *stopConv,
		allocate: *allocate, epochs: *epochs,
		dist: *distN, shardSize: *shardSize,
		trace: *trace, traceSample: *traceSmp, metrics: *metrics,
		httpAddr: *httpAddr, progress: *progress,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sfi:", err)
		os.Exit(1)
	}
}

type campaignArgs struct {
	flips            int
	seed             uint64
	backend          string
	unit, typ, macro string
	sticky           bool
	duration         int
	span             int
	raw, noRec       bool
	window           int
	fixed            bool
	workers          int
	lanes            int
	nest             bool
	detail           bool
	jsonOut          bool
	causes           bool
	units, types     bool

	margin     float64
	confidence float64
	stopConv   bool
	allocate   string
	epochs     int

	dist      int
	shardSize int

	trace       string
	traceSample int
	metrics     string
	httpAddr    string
	progress    bool
}

// liveState shares the latest campaign progress between the callback, the
// stderr renderer and the debug HTTP handlers.
type liveState struct {
	mu   sync.Mutex
	last sfi.Progress
}

func (s *liveState) set(p sfi.Progress) {
	s.mu.Lock()
	s.last = p
	s.mu.Unlock()
}

func (s *liveState) get() sfi.Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

func (s *liveState) snapshot() *sfi.MetricsSnapshot {
	if snap := s.get().Metrics; snap != nil {
		return snap
	}
	return &sfi.MetricsSnapshot{}
}

func run(a campaignArgs) error {
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
	cfg := sfi.DefaultCampaignConfig()
	cfg.Flips = a.flips
	cfg.Seed = a.seed
	cfg.Workers = a.workers
	cfg.KeepResults = true
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
		cfg.Runner.Backend = a.backend
	}
	cfg.Runner.CheckersOn = !a.raw
	cfg.Runner.RecoveryOn = !a.noRec
	if a.sticky {
		cfg.Runner.Mode = sfi.Sticky
		cfg.Runner.StickyCycles = a.duration
	}
	if a.span > 1 {
		cfg.Runner.SpanBits = a.span
	}
	if a.window > 0 {
		cfg.Runner.Window = a.window
	}
	if a.fixed {
		cfg.Runner.QuiesceExit = 0
	}
	if a.lanes > 0 {
		cfg.Runner.BatchLanes = a.lanes
	}
	if a.nest {
		cfg.Runner.Proc.EnableNest = true
	}
	if a.margin > 0 {
		// The flag speaks percentage points (matching every rendered
		// percentage); the rule works in fractions.
		cfg.Stop = sfi.StopConfig{
			TargetMargin:   a.margin / 100,
			Confidence:     a.confidence,
			StopOnConverge: a.stopConv,
		}
	} else if a.stopConv {
		return fmt.Errorf("-stop-on-converge needs a -margin")
	}
	// "uniform" normalizes to the zero AllocConfig so uniform campaigns
	// stay byte-identical to pre-allocation versions.
	if a.allocate != "" && a.allocate != sfi.AllocUniform {
		cfg.Alloc = sfi.AllocConfig{Mode: a.allocate, Epochs: a.epochs}
	}

	filters := 0
	if a.unit != "" {
		// The p6lite unit list is only authoritative for the default
		// backend; other backends bring their own unit vocabulary and the
		// campaign's population guard rejects a filter that matches nothing.
		if a.backend == "" || a.backend == sfi.BackendP6Lite {
			found := a.unit == sfi.UnitNEST && a.nest
			for _, u := range sfi.Units {
				if u == a.unit {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("unknown unit %q (have %v; NEST needs -nest)", a.unit, sfi.Units)
			}
		}
		cfg.Filter = sfi.ByUnit(a.unit)
		filters++
	}
	if a.typ != "" {
		var t sfi.LatchType
		for _, lt := range sfi.LatchTypes {
			if lt.String() == a.typ {
				t = lt
			}
		}
		if t == 0 {
			return fmt.Errorf("unknown latch type %q", a.typ)
		}
		cfg.Filter = sfi.ByType(t)
		filters++
	}
	if a.macro != "" {
		cfg.Filter = sfi.ByGroupPrefix(a.macro)
		filters++
	}
	if filters > 1 {
		return fmt.Errorf("use at most one of -unit, -type, -macro")
	}

	// Distributed smoke mode: run the same campaign through an in-process
	// coordinator and N loopback workers — the full sfi-coord/sfi-worker
	// lease protocol over real HTTP, one process.
	if a.dist > 0 {
		rep, elapsed, doc, err := runDist(a, cfg)
		if err != nil {
			return err
		}
		return emit(a, rep, elapsed, doc)
	}

	// Observability: metrics are always collected (the end-of-run summary
	// is rendered from the snapshot; measured overhead is <5%, see
	// EXPERIMENTS.md), and so are campaign spans — they are per-batch, not
	// per-injection, so the ring costs microseconds per campaign and feeds
	// the end-of-run latency attribution line.
	cfg.Obs.Metrics = true
	tracer := sfi.NewTracer(cfg.Seed)
	cfg.Obs.Tracer = tracer

	var traceFlush func() error
	if a.trace != "" {
		f, err := os.Create(a.trace)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		sink := sfi.NewTraceSink(bw, sfi.TraceOptions{Sample: a.traceSample})
		cfg.Obs.Trace = sink
		// Mirror the campaign spans into the same JSONL stream (span lines
		// carry trace_id/span fields, injection events carry seq/outcome —
		// the two record shapes coexist).
		tracer.SetSink(sink)
		traceFlush = func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			if err := sink.Err(); err != nil {
				return fmt.Errorf("trace write: %w", err)
			}
			fmt.Fprintf(os.Stderr, "trace: %d events to %s (%d sampled out)\n",
				sink.Recorded(), a.trace, sink.Dropped())
			return nil
		}
	}

	live := &liveState{}
	cfg.Obs.ProgressEvery = 500 * time.Millisecond
	cfg.Obs.Progress = func(p sfi.Progress) {
		live.set(p)
		if a.progress {
			renderProgress(os.Stderr, p)
		}
	}

	if a.httpAddr != "" {
		ln, err := net.Listen("tcp", a.httpAddr)
		if err != nil {
			return err
		}
		// expvar's /debug/vars and pprof's /debug/pprof are registered on
		// the default mux by their package inits; add the campaign views.
		sfi.PublishMetricsExpvar("sfi", live.snapshot)
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			live.snapshot().WritePrometheus(w, "sfi")
			sfi.WriteConvergencePrometheus(w, "sfi", live.get().Convergence)
		})
		http.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(live.get())
		})
		go http.Serve(ln, nil)
		fmt.Fprintf(os.Stderr, "debug listener on http://%s (/debug/vars, /debug/pprof, /metrics, /progress)\n",
			ln.Addr())
	}

	start := time.Now()
	rep, err := sfi.RunCampaign(cfg)
	elapsed := time.Since(start)
	if a.progress {
		fmt.Fprintln(os.Stderr) // end the \r progress line
	}
	if err != nil {
		return err
	}
	if traceFlush != nil {
		tracer.SetSink(nil)
		if err := traceFlush(); err != nil {
			return err
		}
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

	printSummary(rep, elapsed, doc)
	if a.detail {
		fmt.Print(rep.DetailedString()) // includes the convergence line
	} else {
		fmt.Print(rep)
		if c := rep.Convergence; c != nil {
			verdict := "converged"
			if !c.Converged {
				verdict = "NOT converged"
			}
			fmt.Printf("convergence: %s at n=%d — widest margin %s %.2f%% (target %.2f%% at %.0f%% confidence)\n",
				verdict, c.Total, c.WidestClass, 100*c.WidestWidth,
				100*c.TargetMargin, 100*c.Confidence)
		}
	}

	if a.units {
		fmt.Println("\nper unit:")
		for _, u := range reportUnits(rep) {
			fmt.Printf("  %-5s", u)
			for _, o := range sfi.Outcomes {
				fmt.Printf(" %s %6.2f%%", o, 100*rep.UnitFraction(u, o))
			}
			fmt.Println()
		}
	}
	if a.types {
		fmt.Println("\nper latch type:")
		for _, t := range sfi.LatchTypes {
			fmt.Printf("  %-8v", t)
			for _, o := range sfi.Outcomes {
				fmt.Printf(" %s %6.2f%%", o, 100*rep.TypeFraction(t, o))
			}
			fmt.Println()
		}
	}
	if a.causes {
		fmt.Println("\ncause-effect traces:")
		fmt.Print(sfi.TraceReport(rep, 50))
	}
	return nil
}

// reportUnits lists the units to render in the -units breakdown: the
// paper's p6lite ordering for units the report actually saw, then any
// backend-specific units (e.g. awan's ALU bank) in sorted order.
func reportUnits(rep *sfi.Report) []string {
	var out []string
	seen := make(map[string]bool)
	for _, u := range sfi.Units {
		if _, ok := rep.ByUnit[u]; ok {
			out = append(out, u)
			seen[u] = true
		}
	}
	var extra []string
	for u := range rep.ByUnit {
		if !seen[u] {
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
func runDist(a campaignArgs, cfg sfi.CampaignConfig) (*sfi.Report, time.Duration, *sfi.TraceDoc, error) {
	fs, err := dist.FilterFromFlags(a.unit, a.typ, a.macro)
	if err != nil {
		return nil, 0, nil, err
	}
	// Split the machine's cores across the loopback workers unless the
	// user pinned a per-shard worker count.
	shardWorkers := cfg.Workers
	if shardWorkers <= 0 {
		shardWorkers = runtime.GOMAXPROCS(0) / a.dist
		if shardWorkers < 1 {
			shardWorkers = 1
		}
	}
	coord, err := dist.NewCoordinator(dist.CoordConfig{
		Campaign: dist.CampaignSpec{
			Runner:       cfg.Runner,
			Seed:         cfg.Seed,
			Flips:        cfg.Flips,
			Filter:       fs,
			KeepResults:  cfg.KeepResults,
			ShardWorkers: shardWorkers,
			Stop:         cfg.Stop,
			Alloc:        cfg.Alloc,
		},
		ShardSize: a.shardSize,
		Tracer:    sfi.NewTracer(cfg.Seed),
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
		ln.Addr(), a.dist, shardWorkers)

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
	if a.progress {
		go func() {
			t := time.NewTicker(500 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					// The fleet snapshot covers completed shards exactly plus
					// heartbeat-reported in-flight work, so the line moves
					// between shard completions too.
					p := coord.Progress()
					fp := sfi.ProgressFrom(coord.FleetSnapshot(), p.Total, 0, start)
					fp.Convergence = coord.Convergence()
					line := fmt.Sprintf("%s — shards %d/%d done, %d leased",
						fp.Line(), p.Done, p.Shards, p.Leased)
					fmt.Fprintf(os.Stderr, "\r%-78s", line)
				}
			}
		}()
	}

	rep, err := coord.Wait(ctx)
	elapsed := time.Since(start)
	if a.progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return nil, 0, nil, err
	}
	if d := coord.StopDecision(); d != nil {
		fmt.Fprintf(os.Stderr, "converged early: %d of %d injections (widest class %s at %.2f%%, target %.2f%%)\n",
			d.Total, cfg.Flips, d.WidestClass, 100*d.WidestWidth, 100*d.TargetMargin)
	}
	// Workers exit on their own once the coordinator answers 410.
	for i := 0; i < a.dist; i++ {
		if werr := <-workerErr; werr != nil {
			return nil, 0, nil, werr
		}
	}
	return rep, elapsed, coord.TraceDoc(), nil
}

// renderProgress draws one live progress line to w (carriage-return
// overwritten in place). The line itself is Progress.Line, shared with
// the coordinator's fleet progress.
func renderProgress(w *os.File, p sfi.Progress) {
	fmt.Fprintf(w, "\r%-78s", p.Line())
}

// printSummary renders the end-of-run summary from the campaign's metrics
// snapshot and, when a span tree exists, its latency attribution.
func printSummary(rep *sfi.Report, elapsed time.Duration, doc *sfi.TraceDoc) {
	s := rep.Metrics
	if s == nil {
		fmt.Printf("campaign finished in %v (%d injections)\n",
			elapsed.Round(time.Millisecond), rep.Total)
		return
	}
	util := 0.0
	if rep.Workers > 0 && elapsed > 0 {
		util = float64(s.BusyNs) / (float64(rep.Workers) * float64(elapsed.Nanoseconds()))
	}
	// Rates are labeled explicitly: with a bit-parallel backend one model
	// pass retires many injections, so injections/s and batches/s differ by
	// the mean lane occupancy.
	fmt.Printf("campaign: %d injections in %v — %.1f injections/s, %d workers (%.0f%% busy)\n",
		s.Injections, elapsed.Round(time.Millisecond),
		float64(s.Injections)/elapsed.Seconds(), rep.Workers, 100*util)
	fmt.Printf("restore:  p50 %v  p95 %v  (%d restores)\n",
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
