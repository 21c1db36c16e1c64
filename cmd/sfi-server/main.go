// Command sfi-server runs the persistent campaign service: a daemon that
// accepts fault-injection campaigns over a REST API, queues them with
// weighted fair sharing across tenants, executes them on the embedded
// dist coordinator/worker machinery, and keeps everything durable in a
// content-addressed store. Identical specs are answered from the store
// without re-running; campaigns sharing a (backend, workload, config)
// checkpoint image boot from a warm cached clone; a restarted server
// resumes interrupted campaigns from their shard journals.
//
//	POST   /v1/campaigns                submit {"tenant": ..., "campaign": {...}}
//	GET    /v1/campaigns                list
//	GET    /v1/campaigns/{id}           one record
//	DELETE /v1/campaigns/{id}           cancel
//	GET    /v1/campaigns/{id}/status    record + live coordinator fleet view
//	GET    /v1/campaigns/{id}/report    stored report document
//	GET    /v1/campaigns/{id}/events    shard trace (JSONL)
//	GET    /v1/campaigns/{id}/trace     span tree, critical path, latency attribution
//	       /v1/campaigns/{id}/coord/... lease passthrough for external workers
//	GET    /v1/traces                   per-campaign trace summaries
//	GET    /v1/status                   queue depth, tenant shares, cache stats
//	GET    /metrics                     Prometheus text exposition (incl. span histograms)
//
// Examples:
//
//	sfi-server -addr :8440 -store /var/lib/sfi
//	sfi-server -addr :8440 -store ./campaigns -max-campaigns 4 \
//	    -tenant-weight ci=1 -tenant-weight interactive=3
//
// Then submit and follow with the sfi client:
//
//	sfi submit -server http://localhost:8440 -flips 100000 -margin 1 -stop-on-converge
//	sfi status -server http://localhost:8440 <id>
//	sfi report -server http://localhost:8440 <id>
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sfi/internal/obs"
	"sfi/internal/server"

	_ "sfi/internal/engine/awan"   // registered backends campaigns may name
	_ "sfi/internal/engine/p6lite" // default backend
)

// weightFlag collects repeated -tenant-weight name=weight pairs.
type weightFlag map[string]float64

func (w weightFlag) String() string {
	parts := make([]string, 0, len(w))
	for name, weight := range w {
		parts = append(parts, fmt.Sprintf("%s=%g", name, weight))
	}
	return strings.Join(parts, ",")
}

func (w weightFlag) Set(s string) error {
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("want name=weight, got %q", pair)
		}
		weight, err := strconv.ParseFloat(val, 64)
		if err != nil || weight <= 0 {
			return fmt.Errorf("weight for %q must be a positive number, got %q", name, val)
		}
		w[name] = weight
	}
	return nil
}

func main() {
	weights := weightFlag{}
	var (
		addr      = flag.String("addr", ":8440", "listen address for the campaign REST API")
		dir       = flag.String("store", "sfi-store", "content-addressed store directory (reports, journals, campaign records)")
		maxConc   = flag.Int("max-campaigns", 2, "campaigns running concurrently; the rest queue")
		shardSize = flag.Int("shard-size", 0, "default injections per shard for campaigns that don't set one (0 = ~64 shards of at least 16)")
		leaseTTL  = flag.Duration("lease-ttl", 2*time.Second, "shard lease TTL of embedded campaign coordinators")
		cacheSize = flag.Int("image-cache", 4, "warm checkpoint images kept for cloning into campaigns")
		logLevel  = flag.String("log-level", "info", "event log level (debug, info, warn, error)")
		logText   = flag.Bool("log-text", false, "logfmt-style text event logs instead of JSON")
		drain     = flag.Duration("drain", 5*time.Second, "HTTP drain budget on shutdown")
		httpAddr  = flag.String("http", "", "serve /debug/pprof and /debug/vars (expvar) on this separate address")
	)
	flag.Var(weights, "tenant-weight", "fair-share weight as name=weight (repeatable or comma-separated; unlisted tenants get 1)")
	flag.Parse()

	if err := run(*addr, *httpAddr, server.Config{
		Dir:            *dir,
		MaxConcurrent:  *maxConc,
		TenantWeights:  weights,
		ShardSize:      *shardSize,
		LeaseTTL:       *leaseTTL,
		ImageCacheSize: *cacheSize,
	}, *logLevel, *logText, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "sfi-server:", err)
		os.Exit(1)
	}
}

func run(addr, httpAddr string, cfg server.Config, logLevel string, logText bool, drain time.Duration) error {
	level, err := obs.ParseLogLevel(logLevel)
	if err != nil {
		return err
	}
	log := obs.NewLogger(os.Stderr, level, !logText)
	cfg.Log = log

	s, err := server.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.Close()
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	log.Info("campaign server listening", "addr", ln.Addr().String(), "store", cfg.Dir,
		"max_campaigns", cfg.MaxConcurrent)

	// Debug listener, kept off the API address so operational surfaces
	// (pprof heap dumps, expvar) never share a port with tenant traffic.
	// pprof and expvar register themselves on the default mux at init.
	if httpAddr != "" {
		dln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			s.Close()
			return err
		}
		go http.Serve(dln, nil) //nolint:errcheck
		log.Info("debug listener up", "addr", dln.Addr().String(),
			"endpoints", "/debug/pprof, /debug/vars")
	}

	// SIGTERM and ^C both drain gracefully: stop accepting requests, then
	// interrupt running campaigns so their journals seal — a restarted
	// server resumes them shard-for-shard.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Info("shutting down", "drain", drain.String())

	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	srv.Shutdown(sctx) //nolint:errcheck // past the deadline Close semantics apply
	s.Close()
	log.Info("campaign server stopped")
	return nil
}
