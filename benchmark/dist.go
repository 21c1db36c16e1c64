package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"sfi/internal/core"
	"sfi/internal/dist"
	"sfi/internal/engine"
)

// distWorkers is the loopback fleet: loadWorkers worker loops, one model
// copy each.
const distWorkers = loadWorkers

// distInstance runs each op as a distributed campaign: a journaling
// coordinator on a real loopback listener, leased to distWorkers workers.
type distInstance struct {
	e     *env
	local *localInstance // the same campaigns run in-process: the golden reference
}

// openDist times what a distributed campaign needs before its first shard
// can run: the coordinator with its journal, the listener, and a worker's
// prototype runner. Ops build their own; the prototype stays for probes.
func openDist(e *env) (instance, error) {
	d := &distInstance{e: e, local: &localInstance{e: e, rc: e.p6lite(engine.Toggle), flips: e.sz.toggleFlips}}
	dir, err := os.MkdirTemp(e.tmp, "dist-setup-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	coord, err := dist.NewCoordinator(d.coordConfig(0, dir))
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	if d.local.proto, err = core.NewRunner(d.local.rc); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *distInstance) close() {}

func (d *distInstance) coordConfig(i int, dir string) dist.CoordConfig {
	cfg := d.local.campaign(i)
	return dist.CoordConfig{
		Campaign: dist.CampaignSpec{
			Runner:       cfg.Runner,
			Seed:         cfg.Seed,
			Flips:        cfg.Flips,
			KeepResults:  cfg.KeepResults,
			ShardWorkers: 1,
		},
		ShardSize: d.e.sz.distShard,
		Journal:   filepath.Join(dir, "journal"),
	}
}

// distOp is what a traced distributed op observed of its control plane;
// every worker's transport adds to it under mu.
type distOp struct {
	mu                  sync.Mutex
	leaseMs, completeMs []float64 // round trips by path
	requests, leases    int       // all requests; lease polls among them
	emptyLeases         int       // lease polls that returned no shard
	shardRunMs          []float64 // lease response → complete request, per shard
	journalBytes        int64
	shards, requeues    int
}

// timingTransport is the http.RoundTripper a traced worker talks through:
// it times every request by path, records it as a span, and measures each
// shard's run as the gap from a lease's response to the next completion.
type timingTransport struct {
	base   http.RoundTripper
	rec    *recorder
	worker spanHandle
	op     int

	out       *distOp   // shared by the op's workers
	leasedAt  time.Time // this worker's open lease, under out.mu
	shardSpan spanHandle
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	t0 := time.Now()
	if path == "/v1/complete" {
		t.out.mu.Lock()
		if !t.leasedAt.IsZero() {
			t.out.shardRunMs = append(t.out.shardRunMs, ms(t0.Sub(t.leasedAt)))
			t.leasedAt = time.Time{}
			t.shardSpan.end()
		}
		t.out.mu.Unlock()
	}
	sp := t.rec.begin(t.worker, t.op, "POST "+path, "dist")
	resp, err := t.base.RoundTrip(req)
	sp.end()
	rtt := ms(time.Since(t0))

	t.out.mu.Lock()
	defer t.out.mu.Unlock()
	t.out.requests++
	switch path {
	case "/v1/lease":
		t.out.leases++
		t.out.leaseMs = append(t.out.leaseMs, rtt)
		switch {
		case err != nil:
		case resp.StatusCode == http.StatusOK:
			t.leasedAt = time.Now()
			t.shardSpan = t.rec.begin(t.worker, t.op, "shard.run", "core")
		case resp.StatusCode == http.StatusNoContent:
			t.out.emptyLeases++
		}
	case "/v1/complete":
		t.out.completeMs = append(t.out.completeMs, rtt)
	}
	return resp, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (d *distInstance) op(i int, rec *recorder) opResult {
	res := opResult{Index: i, Kind: "fresh"}
	dir, err := os.MkdirTemp(d.e.tmp, "dist-*")
	if err != nil {
		res.fail("temp dir: %v", err)
		return res
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(d.e.ctx, opTimeout)
	defer cancel()
	ccfg := d.coordConfig(i, dir)
	obs := &distOp{}

	t0 := time.Now()
	root := rec.begin(spanHandle{}, i, "op", "bench")
	sp := rec.begin(root, i, "dist.NewCoordinator", "dist")
	coord, err := dist.NewCoordinator(ccfg)
	sp.end()
	if err != nil {
		res.fail("coordinator: %v", err)
		return res
	}
	defer coord.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		res.fail("listen: %v", err)
		return res
	}
	srv := &http.Server{Handler: coord.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after Close below
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	// Each worker gets its own connection pool, dropped with the op, so no
	// idle connection outlives the listener it points at.
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	workerErr := make(chan error, distWorkers)
	for w := 0; w < distWorkers; w++ {
		wsp := rec.begin(root, i, "dist.RunWorker", "dist")
		var rt http.RoundTripper = transport
		if rec != nil {
			rt = &timingTransport{base: transport, rec: rec, worker: wsp, op: i, out: obs}
		}
		go func(w int) {
			defer wsp.end()
			workerErr <- dist.RunWorker(ctx, dist.WorkerConfig{
				Coordinator: "http://" + ln.Addr().String(),
				ID:          fmt.Sprintf("bench-%d", w),
				PollEvery:   2 * time.Millisecond,
				Client:      &http.Client{Timeout: 30 * time.Second, Transport: rt},
			})
		}(w)
	}
	sp = rec.begin(root, i, "Coordinator.Wait", "dist")
	rep, err := coord.Wait(ctx)
	sp.end()
	if err == nil {
		sp = rec.begin(root, i, "Report.MarshalJSON", "core")
		res.report, err = rep.MarshalJSON()
		sp.end()
	}
	root.end()
	res.WallS = time.Since(t0).Seconds()

	// The report is in hand; what follows is teardown and not timed. A
	// campaign that failed leaves workers polling, so release them.
	if err != nil {
		cancel()
	}
	for w := 0; w < distWorkers; w++ {
		if werr := <-workerErr; werr != nil && err == nil {
			err = fmt.Errorf("worker: %w", werr)
		}
	}
	if err != nil {
		res.fail("distributed campaign: %v", err)
		return res
	}
	res.Injections = rep.Total
	res.parseReport(res.report)
	if rep.Total != ccfg.Campaign.Flips && i >= 0 {
		res.fail("distributed campaign classified %d of %d flips", rep.Total, ccfg.Campaign.Flips)
	}
	if rec != nil {
		st := coord.Status()
		obs.shards, obs.requeues = st.Shards, st.Requeues
		if fi, err := os.Stat(ccfg.Journal); err == nil {
			obs.journalBytes = fi.Size()
		}
		res.dist = obs
	}
	return res
}

// verify re-runs op 0 as one local campaign: distribution must not change
// a single outcome count.
func (d *distInstance) verify(ops []opResult) []string {
	golden := d.local.op(0, nil)
	if golden.Err != "" {
		return []string{"golden local campaign: " + golden.Err}
	}
	for _, o := range ops {
		if o.Index == 0 && o.Err == "" && !reflect.DeepEqual(o.counts, golden.counts) {
			return []string{fmt.Sprintf("op 0: distributed counts %v, local counts %v", o.counts, golden.counts)}
		}
	}
	return nil
}
