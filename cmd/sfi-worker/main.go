// Command sfi-worker executes shards of a distributed fault-injection
// campaign on behalf of an sfi-coord coordinator. It polls for shard
// leases, builds and warms the model once, runs each leased shard over the
// warm-clone worker pool, heartbeats while it works — piggybacking the
// shard's metrics so far, the coordinator's live fleet view — and posts
// the shard report back, with a sampled trace segment attached when the
// coordinator records a shard trace. It exits cleanly when the coordinator
// declares the campaign over.
//
// Lifecycle events go to stderr as structured JSON logs; -http serves
// worker-local debug views (/debug/pprof, /debug/vars, /metrics,
// /progress) while shards run.
//
// Example:
//
//	sfi-worker -coord http://coordhost:8430 -workers 8
package main

import (
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
	"sync"
	"time"

	"sfi"
	"sfi/internal/dist"
	"sfi/internal/obs"
)

func main() {
	var (
		coord    = flag.String("coord", "http://localhost:8430", "coordinator base URL")
		id       = flag.String("id", "", "worker id (default host-pid)")
		workers  = flag.Int("workers", 0, "concurrent model copies per shard (0 = campaign default)")
		poll     = flag.Duration("poll", 250*time.Millisecond, "lease poll period when no shard is available")
		trace    = flag.String("trace", "", "local JSONL injection trace file ('' = off)")
		sample   = flag.Int("trace-sample", 0, "record every Nth injection to -trace (0 = all)")
		attach   = flag.Int("trace-attach", 32, "sampled trace lines attached per shard completion when the coordinator records a shard trace (0 = none)")
		spans    = flag.Int("span-attach", 512, "campaign spans attached per shard completion when the coordinator traces (0 = none: no span recording)")
		logLevel = flag.String("log-level", "info", "event log level (debug, info, warn, error)")
		logText  = flag.Bool("log-text", false, "logfmt-style text event logs instead of JSON")
		httpAddr = flag.String("http", "", "debug listener: /debug/vars, /debug/pprof, /metrics, /progress")
		quiet    = flag.Bool("quiet", false, "warnings and errors only")
	)
	flag.Parse()

	if err := run(workerArgs{
		coord: *coord, id: *id, workers: *workers, poll: *poll,
		trace: *trace, sample: *sample, attach: *attach, spans: *spans,
		logLevel: *logLevel, logText: *logText, httpAddr: *httpAddr,
		quiet: *quiet,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sfi-worker:", err)
		os.Exit(1)
	}
}

type workerArgs struct {
	coord, id      string
	workers        int
	poll           time.Duration
	trace          string
	sample, attach int
	spans          int
	logLevel       string
	logText        bool
	httpAddr       string
	quiet          bool
}

// shardProgress holds the worker's current shard and its Live handle, read
// by /progress and /metrics on the debug listener.
type shardProgress struct {
	mu    sync.Mutex
	shard dist.ShardLease
	live  *sfi.Live
}

func (s *shardProgress) set(sh dist.ShardLease, live *sfi.Live) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shard, s.live = sh, live
}

func (s *shardProgress) get() (dist.ShardLease, sfi.Progress) {
	s.mu.Lock()
	sh, live := s.shard, s.live
	s.mu.Unlock()
	return sh, live.Progress()
}

func (s *shardProgress) snapshot() *sfi.MetricsSnapshot {
	_, p := s.get()
	return p.Metrics
}

// attachBound is the WorkerConfig bound of an attach flag: the flag's 0 is
// none, where the config's zero value is the default.
func attachBound(n int) int {
	if n == 0 {
		return -1
	}
	return n
}

func run(a workerArgs) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	level, err := obs.ParseLogLevel(a.logLevel)
	if err != nil {
		return err
	}
	if a.quiet && level < slog.LevelWarn {
		level = slog.LevelWarn
	}
	log := obs.NewLogger(os.Stderr, level, !a.logText)

	cfg := dist.WorkerConfig{
		Coordinator: a.coord,
		ID:          a.id,
		Workers:     a.workers,
		PollEvery:   a.poll,
		Log:         log,
		TraceSample: a.sample,
		TraceAttach: attachBound(a.attach),
		SpanAttach:  attachBound(a.spans),
	}

	var traceFlush func() error
	if a.trace != "" {
		f, err := os.Create(a.trace)
		if err != nil {
			return err
		}
		cfg.TraceW = f
		traceFlush = func() error {
			if err := f.Close(); err != nil {
				return err
			}
			log.Info("trace written", "path", a.trace)
			return nil
		}
	}

	live := &shardProgress{live: new(sfi.Live)}
	cfg.OnShard = live.set

	if a.httpAddr != "" {
		ln, err := net.Listen("tcp", a.httpAddr)
		if err != nil {
			return err
		}
		// expvar's /debug/vars and pprof's /debug/pprof are registered on
		// the default mux by their package inits; add the worker views.
		sfi.PublishMetricsExpvar("sfi_worker", live.snapshot)
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			live.snapshot().WritePrometheus(w, "sfi")
		})
		http.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
			sh, p := live.get()
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"shard": sh, "progress": p})
		})
		go http.Serve(ln, nil)
		log.Info("debug listener", "addr", ln.Addr().String(),
			"endpoints", "/debug/vars, /debug/pprof, /metrics, /progress")
	}

	if err := dist.RunWorker(ctx, cfg); err != nil {
		return err
	}
	if traceFlush != nil {
		return traceFlush()
	}
	return nil
}
