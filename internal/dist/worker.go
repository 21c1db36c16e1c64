package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"sfi/internal/core"
	"sfi/internal/engine"
	"sfi/internal/obs"
)

// WorkerConfig parameterizes one campaign worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8430".
	Coordinator string

	// ID identifies this worker in leases and logs ("" derives one from
	// hostname and pid).
	ID string

	// Workers overrides the campaign's ShardWorkers: concurrent model
	// copies this process fans each shard out over (0 = use the spec).
	Workers int

	// PollEvery is the lease re-poll period while no shard is available
	// (default 250ms). While the coordinator is unreachable the polls back
	// off: the wait starts at PollEvery, doubles per consecutive failure
	// with ±25% jitter up to pollBackoffCap periods, and resets to
	// PollEvery on any successful response.
	PollEvery time.Duration

	// NewRunner overrides how the worker gets its prototype runner from a
	// campaign's runner spec (nil = core.WarmRunner, a clone of the
	// process's cached image). A server embedding workers in-process uses
	// this to serve prototypes from an image cache of its own.
	NewRunner func(core.RunnerConfig) (*core.Runner, error)

	// Client is the HTTP client ( nil = a default with a 30s timeout).
	Client *http.Client

	// Log receives structured worker lifecycle events with worker/shard
	// attributes (nil = silent).
	Log *slog.Logger

	// TraceW, when non-nil, receives the worker's own injection trace as
	// JSONL (subject to TraceSample), exactly as a local campaign's -trace
	// output.
	TraceW io.Writer

	// TraceSample records every TraceSample-th injection event to TraceW
	// (0 and 1 both mean every event).
	TraceSample int

	// TraceAttach bounds the sampled injection-trace lines attached to
	// each shard completion and forwarded into the coordinator's shard
	// trace (default 32; negative disables attachment). Lines are attached
	// only when the lease asks for them, which a coordinator does exactly
	// when it records a shard trace: TraceW gets the full local trace
	// either way. When TraceW is nil, the worker samples just enough
	// events to fill the attachment instead of tracing every injection,
	// and traces nothing for a lease that asks for none.
	TraceAttach int

	// SpanAttach bounds the campaign spans attached to each shard
	// completion (default 512; negative disables span recording for this
	// worker entirely). Spans are only recorded when the lease carries a
	// traceparent — an untraced coordinator costs the worker nothing.
	// When a shard finishes with more spans than the bound, the most
	// recent ones are kept: structural spans (shard.run, campaign.run,
	// merge) finish last, so the tree's spine survives and only early
	// per-batch spans are shed.
	SpanAttach int

	// OnShard, when non-nil, is called once per shard, before it runs,
	// with the handle its progress is read through — the hook worker-local
	// debug endpoints hang off.
	OnShard func(ShardLease, *core.Live)
}

// Worker leases shards from a coordinator and executes them. The
// expensive part of shard start-up — generating the AVP, warming the
// model to steady state and capturing the phased checkpoints — is paid
// once per process: the first shard takes a prototype Runner from the
// image cache all of the process's workers share, and every later shard
// (and every concurrent model copy, via the warm-clone pool) reuses it.
type worker struct {
	cfg   WorkerConfig
	coord coordinator
	log   *slog.Logger
	retry *backoff // lease-poll backoff while the coordinator is unreachable

	proto *core.Runner
	// protoCfg is the runner spec the prototype was built from; a spec
	// change (new campaign on a reused worker) forces a rebuild.
	protoCfg core.RunnerConfig
}

// coordinator is what a worker needs of a coordinator: the four calls of the
// lease protocol, made over HTTP (httpCoordinator) or on a *Coordinator in
// this process. Each answers with the protocol's status — 200, 204 no work
// right now, 409 lease not held, 410 campaign over, 4xx/5xx refused, which
// may come with the coordinator's reason — or with status 0 and the error
// that kept the call from reaching the coordinator.
type coordinator interface {
	lease(ctx context.Context, req leaseRequest) (*leaseResponse, int, error)
	heartbeat(req heartbeatRequest) (int, error)
	complete(req completeRequest) (int, error)
	fail(req failRequest) (int, error)
}

// RunWorker runs the worker loop against the coordinator at cfg.Coordinator
// until the coordinator reports the campaign over (nil), ctx is cancelled
// (ctx error), or a shard fails locally in a way that retrying cannot fix.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return runWorker(ctx, cfg, httpCoordinator{base: cfg.Coordinator, client: client})
}

// RunWorker is RunWorker against this coordinator, by direct call: what a
// process embedding both runs instead of serving Handler to itself.
// cfg.Coordinator and cfg.Client are not used.
func (c *Coordinator) RunWorker(ctx context.Context, cfg WorkerConfig) error {
	return runWorker(ctx, cfg, c)
}

// pollBackoffCap is where the backoff of failed lease polls stops doubling,
// in poll periods.
const pollBackoffCap = 8

func runWorker(ctx context.Context, cfg WorkerConfig, coord coordinator) error {
	if cfg.ID == "" {
		host, _ := os.Hostname()
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 250 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	if cfg.TraceAttach == 0 {
		cfg.TraceAttach = 32
	}
	if cfg.SpanAttach == 0 {
		cfg.SpanAttach = 512
	}
	if cfg.NewRunner == nil {
		cfg.NewRunner = core.WarmRunner
	}
	w := &worker{
		cfg:   cfg,
		coord: coord,
		log:   cfg.Log.With("worker", cfg.ID),
		retry: newBackoff(cfg.PollEvery, pollBackoffCap*cfg.PollEvery),
	}
	for {
		lease, status, err := coord.lease(ctx, leaseRequest{Worker: cfg.ID, Copies: cfg.Workers, Run: true})
		if status != 0 {
			// Any response — even 204 no-work — means the coordinator is
			// back; drop the backoff to the base poll period.
			w.retry.reset()
		}
		switch {
		case status == 0:
			// Coordinator unreachable (it may be restarting): back off
			// exponentially with jitter so a fleet that lost its
			// coordinator together doesn't re-poll in lockstep; ctx bounds
			// the wait.
			delay := w.retry.next()
			w.log.Warn("lease poll failed", "err", err, "retry_in", delay.Round(time.Millisecond))
			if !sleep(ctx, delay) {
				return context.Cause(ctx)
			}
		case status == http.StatusGone:
			w.log.Info("campaign over")
			return nil
		case status == http.StatusNoContent:
			if !sleep(ctx, cfg.PollEvery) {
				return context.Cause(ctx)
			}
		case status == http.StatusOK:
			if err := w.runLease(ctx, lease); err != nil {
				if ctx.Err() != nil {
					return context.Cause(ctx)
				}
				return err
			}
		default:
			return fmt.Errorf("dist: worker %s: unexpected lease status %d", cfg.ID, status)
		}
	}
}

// lineCapture buffers up to max JSONL lines written through it — the
// shard-completion trace attachment. Each TraceSink write is exactly one
// line and the sink serializes writes, so no extra locking is needed; the
// captured lines are read only after the shard campaign returns.
type lineCapture struct {
	max   int
	lines []json.RawMessage
}

func (lc *lineCapture) Write(p []byte) (int, error) {
	if len(lc.lines) < lc.max {
		line := bytes.TrimRight(p, "\n")
		lc.lines = append(lc.lines, json.RawMessage(bytes.Clone(line)))
	}
	return len(p), nil
}

// shardObs wires a shard's observability: the Live handle the heartbeat
// loop reads the shard's metrics through, the OnShard hook, and the
// injection trace (local writer and/or bounded completion attachment, the
// latter only when the lease asks for it).
func (w *worker) shardObs(ccfg *core.CampaignConfig, attach bool, sh ShardLease) *lineCapture {
	// Shard reports always carry metrics (a Live handle implies them): the
	// coordinator's /metrics view converges on the merge of them, and they
	// allocate nothing per injection (core's TestObservabilityAllocs).
	ccfg.Obs.Live = new(core.Live)
	if w.cfg.OnShard != nil {
		w.cfg.OnShard(sh, ccfg.Obs.Live)
	}

	var capture *lineCapture
	var tw io.Writer
	opts := obs.TraceOptions{Sample: w.cfg.TraceSample}
	if attach && w.cfg.TraceAttach > 0 {
		capture = &lineCapture{max: w.cfg.TraceAttach}
		tw = capture
		if w.cfg.TraceW != nil {
			tw = io.MultiWriter(w.cfg.TraceW, capture)
		} else {
			// Attachment-only tracing: stop marshalling once the capture
			// is full, and stride the samples across the shard instead of
			// keeping just the first 32.
			opts.Max = w.cfg.TraceAttach
			if shardSize := sh.Hi - sh.Lo; opts.Sample <= 1 && shardSize > w.cfg.TraceAttach {
				opts.Sample = shardSize / w.cfg.TraceAttach
			}
		}
	} else if w.cfg.TraceW != nil {
		tw = w.cfg.TraceW
	}
	if tw != nil {
		ccfg.Obs.Trace = obs.NewTraceSink(tw, opts)
	}
	return capture
}

// beat is what the heartbeat loop sends for the shard running now: the
// request but its metrics, and the handle the metrics are read through.
type beat struct {
	req  heartbeatRequest
	live *core.Live
}

// runLease executes one lease, a run of shards, one after another against
// the (reused) prototype: heartbeats in the background, each naming the
// shard running and piggybacking its metrics so far, and then one completion
// that delivers the run's reports, each with a sampled trace segment when
// the lease asks for one. A run is delivered whole or not at all. Losing the
// lease cancels the run promptly and returns nil — its shards are someone
// else's now. A shard execution error is handed back with /v1/fail, which
// gives back the whole run, so the coordinator can re-queue it without
// waiting for the lease to expire.
func (w *worker) runLease(ctx context.Context, lease *leaseResponse) error {
	id, run := w.cfg.ID, lease.run()
	// The TTL comes off the network and paces the heartbeat ticker, which
	// panics on a non-positive interval.
	if lease.TTLMs < 1 {
		err := fmt.Errorf("dist: worker %s: lease for shard %d carries ttl_ms %d", id, run[0].ID, lease.TTLMs)
		w.fail(run[0].ID, err)
		return err
	}
	ttl := time.Duration(lease.TTLMs) * time.Millisecond

	// Heartbeat from lease grant until the run finishes, covering the
	// (expensive, once-per-process) prototype build as well as the shards;
	// every beat extends the whole run, and a refused one (lease lost,
	// campaign over) cancels it. Each beat carries the running shard's
	// cumulative snapshot, merged as it beats, which neither side writes to
	// once it is sent: a coordinator in this process reads the very same
	// value.
	var cur atomic.Pointer[beat]
	runCtx, cancel := context.WithCancelCause(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
				b := cur.Load()
				if b == nil {
					continue // the first shard is not set up yet
				}
				req := b.req
				req.Metrics = b.live.Progress().Metrics
				status, _ := w.coord.heartbeat(req)
				if status == 0 {
					continue // transient; the lease survives until TTL
				}
				if status != http.StatusOK {
					cancel(errLeaseLost)
					return
				}
			}
		}
	}()

	done := completeRequest{Worker: id}
	for i, g := range run {
		sr, spans, err := w.runShard(runCtx, lease, g, &cur)
		if err != nil {
			cancel(nil)
			<-hbDone
			switch {
			case errors.Is(context.Cause(runCtx), errLeaseLost):
				w.log.Warn("lease lost, abandoning run", "shard", g.ID, "run", len(run))
				return nil
			case ctx.Err() != nil:
				return context.Cause(ctx)
			}
			w.fail(g.ID, err)
			return fmt.Errorf("dist: worker %s: shard %d: %w", id, g.ID, err)
		}
		if i == 0 {
			done.Shard, done.Report, done.Trace = sr.Shard, sr.Report, sr.Trace
		} else {
			done.Rest = append(done.Rest, sr)
		}
		done.Spans = append(done.Spans, spans...)
	}
	cancel(nil)
	<-hbDone
	return w.complete(done)
}

// runShard runs one shard of a run, with the trace context of its
// coordinator span, and returns its part of the run's completion and its
// finished spans, at most SpanAttach of them.
func (w *worker) runShard(ctx context.Context, lease *leaseResponse, g shardGrant, cur *atomic.Pointer[beat]) (shardReport, []obs.Span, error) {
	id, sh := w.cfg.ID, g.ShardLease
	log := w.log.With("shard", sh.ID)
	log.Info("shard started", "lo", sh.Lo, "hi", sh.Hi, "stratum", sh.Stratum)
	ccfg, err := lease.Campaign.CampaignConfig(&sh)
	if err != nil {
		return shardReport{}, nil, err
	}
	if w.cfg.Workers > 0 {
		ccfg.Workers = w.cfg.Workers
	}
	copies := ccfg.Workers // what core.RunCampaign runs the shard over
	if copies <= 0 {
		copies = runtime.GOMAXPROCS(0)
	}

	capture := w.shardObs(&ccfg, lease.AttachTrace, sh)

	// When the grant carries a traceparent, join the coordinator's trace: a
	// local tracer minting spans under the adopted trace ID, with the
	// shard.run span parented on the coordinator's shard span. The finished
	// spans ride home on the completion message.
	var tracer *obs.Tracer
	var shardSp *obs.Span
	tp := ""
	if pctx, ok := obs.ParseTraceparent(g.Traceparent); ok && w.cfg.SpanAttach > 0 {
		// Seed the local ID stream from the propagated parent span ID: the
		// coordinator drew it from its own stream, so it is unique per shard
		// and already decorrelated from every other tracer in the trace
		// (a shard ordinal would collide with the coordinator's own
		// seq-derived stream whenever the ordinals coincide).
		pid, err := strconv.ParseUint(pctx.SpanID, 16, 64)
		if err != nil { // unreachable: ParseTraceparent admits 16 hex digits only
			return shardReport{}, nil, fmt.Errorf("lease traceparent span id: %w", err)
		}
		tracer = obs.NewTracer(lease.Campaign.Seed ^ engine.Splitmix64(pid))
		tracer.SetTraceID(pctx.TraceID)
		shardSp = tracer.StartSpan("shard.run", "worker", pctx).
			Attr("worker", id).AttrInt("lo", int64(sh.Lo)).AttrInt("hi", int64(sh.Hi))
		ccfg.Obs.Tracer = tracer
		ccfg.Obs.Parent = shardSp.Context()
		tp = shardSp.Context().Traceparent()
	}
	cur.Store(&beat{heartbeatRequest{Worker: id, Shard: sh.ID, Traceparent: tp, Copies: copies}, ccfg.Obs.Live})

	if w.proto == nil || !reflect.DeepEqual(w.protoCfg, ccfg.Runner) {
		bsp := tracer.StartSpan("prototype.build", "worker", shardSp.Context())
		proto, err := w.cfg.NewRunner(ccfg.Runner)
		if err != nil {
			bsp.Attr("error", err.Error()).End()
			return shardReport{}, nil, fmt.Errorf("build runner: %w", err)
		}
		bsp.End()
		w.proto, w.protoCfg = proto, ccfg.Runner
	}

	start := time.Now()
	rep, err := core.RunCampaignWith(ctx, w.proto, ccfg)
	if err != nil {
		return shardReport{}, nil, err
	}
	shardSp.AttrInt("injections", int64(rep.Total)).End()
	log.Info("shard complete", "injections", rep.Total,
		"elapsed", time.Since(start).Round(time.Millisecond))
	sr := shardReport{Shard: sh.ID, Report: EncodeReport(rep)}
	if capture != nil {
		sr.Trace = capture.lines
	}
	spans := tracer.Spans() // none untraced, where SpanAttach may be negative
	if len(spans) > 0 && len(spans) > w.cfg.SpanAttach {
		spans = spans[len(spans)-w.cfg.SpanAttach:]
	}
	return sr, spans, nil
}

var errLeaseLost = errors.New("dist: shard lease lost")

// complete delivers a run's reports, retrying transient transport errors —
// completion is idempotent on the coordinator, so re-sending after a lost
// response is safe.
func (w *worker) complete(req completeRequest) error {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		status, err := w.coord.complete(req)
		switch status {
		case 0:
			lastErr = err
			time.Sleep(w.cfg.PollEvery)
		case http.StatusOK, http.StatusGone:
			return nil
		default:
			return fmt.Errorf("dist: worker %s: complete shard %d: status %d", w.cfg.ID, req.Shard, status)
		}
	}
	return fmt.Errorf("dist: worker %s: complete shard %d: %w", w.cfg.ID, req.Shard, lastErr)
}

// fail gives a shard back early (best-effort; lease expiry covers us if
// it doesn't get through).
func (w *worker) fail(shardID int, cause error) {
	w.coord.fail(failRequest{Worker: w.cfg.ID, Shard: shardID, Error: cause.Error()})
}

// httpCoordinator makes the protocol's calls on a remote coordinator's
// Handler, as HTTP+JSON posts.
type httpCoordinator struct {
	base   string // the coordinator's base URL
	client *http.Client
}

func (h httpCoordinator) lease(ctx context.Context, req leaseRequest) (*leaseResponse, int, error) {
	var resp leaseResponse
	status, err := h.post(ctx, "/v1/lease", req, &resp)
	if status != http.StatusOK {
		return nil, status, err
	}
	return &resp, status, nil
}

// The calls about a held shard are not bound to the worker's context: a
// worker that is shutting down still hands its shard back.
func (h httpCoordinator) heartbeat(req heartbeatRequest) (int, error) {
	return h.post(context.Background(), "/v1/heartbeat", req, nil)
}

func (h httpCoordinator) complete(req completeRequest) (int, error) {
	return h.post(context.Background(), "/v1/complete", req, nil)
}

func (h httpCoordinator) fail(req failRequest) (int, error) {
	return h.post(context.Background(), "/v1/fail", req, nil)
}

func (h httpCoordinator) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	// Read to the end whatever the reply holds (a document the caller does
	// not want, a refusal's reason): a body closed unread drops the
	// keep-alive connection, and the next call dials a new one.
	defer func() {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // the reply is already in hand
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, err
		}
	}
	return resp.StatusCode, nil
}

// sleep waits d or until ctx is done, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
