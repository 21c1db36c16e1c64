package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sfi/internal/core"
)

// directFleet is a fleet for Run of direct workers polling every 5 ms, the
// first broken of them with a runner that cannot be built.
func directFleet(c *Coordinator, broken int) func(context.Context, int) error {
	return func(ctx context.Context, i int) error {
		cfg := WorkerConfig{ID: fmt.Sprintf("w%d", i), PollEvery: 5 * time.Millisecond}
		if i < broken {
			cfg.NewRunner = func(core.RunnerConfig) (*core.Runner, error) { return nil, fmt.Errorf("%s has no model", cfg.ID) }
		}
		return c.RunWorker(ctx, cfg)
	}
}

// TestRunEndsWhenEveryWorkerFails: workers that each fail their first run
// and stop spread its attempts over the shards, so none need reach
// MaxAttempts before the last worker is gone. Run ends the campaign nobody is
// left to finish, with every worker's error (bounded by ctx: a Run that
// waited on would end in its deadline instead). A fleet whose workers all
// return nil with the campaign open ends too.
func TestRunEndsWhenEveryWorkerFails(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, _ := startCoord(t, CoordConfig{Campaign: testSpec(), ShardSize: 4})
	_, err := c.Run(ctx, 3, directFleet(c, 3))
	for i := range 3 {
		if want := fmt.Sprintf("w%d has no model", i); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run's error %v does not say %q", err, want)
		}
	}
	idle, _ := startCoord(t, CoordConfig{Campaign: testSpec(), ShardSize: 4})
	if _, err := idle.Run(ctx, 2, func(context.Context, int) error { return nil }); err == nil || !strings.Contains(err.Error(), "still open") {
		t.Errorf("Run of workers that left an open campaign: %v, want it called open", err)
	}
}

// TestRunFailsOnOneWorkersError: one of four workers fails its run and
// stops, the other three finish the campaign, and Run still fails, with that
// worker's error alone. The three start once w0 holds a run: had they
// finished first, it would have had nothing to fail on.
func TestRunFailsOnOneWorkersError(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, _ := startCoord(t, CoordConfig{Campaign: testSpec(), ShardSize: 4})
	tried := make(chan struct{})
	_, err := c.Run(ctx, 4, func(ctx context.Context, i int) error {
		cfg := WorkerConfig{ID: fmt.Sprintf("w%d", i), PollEvery: 5 * time.Millisecond}
		if i == 0 {
			cfg.NewRunner = func(core.RunnerConfig) (*core.Runner, error) {
				close(tried)
				return nil, errors.New("w0 has no model")
			}
		} else {
			<-tried
		}
		return c.RunWorker(ctx, cfg)
	})
	if err == nil || !strings.Contains(err.Error(), "w0 has no model") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("Run's error %v, want w0's alone", err)
	}
	if rep, err := c.Wait(ctx); err != nil || rep.Total != testSpec().Flips {
		t.Errorf("the three healthy workers did not complete the campaign (%v)", err)
	}
}

// TestRunCancelled: when ctx ends Run returns its cause, and by then every
// worker has returned. The one shard is held elsewhere, so the workers are
// polling an open campaign when the cancel comes.
func TestRunCancelled(t *testing.T) {
	c, _ := startCoord(t, CoordConfig{Campaign: testSpec(), ShardSize: 48, LeaseTTL: time.Minute})
	if _, status, _ := c.lease(context.Background(), leaseRequest{Worker: "holder"}); status != http.StatusOK {
		t.Fatalf("the holder's lease of the one shard: status %d", status)
	}
	cause := errors.New("the operator gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	time.AfterFunc(20*time.Millisecond, func() { cancel(cause) })
	var running atomic.Int64
	_, err := c.Run(ctx, 3, func(ctx context.Context, i int) error {
		running.Add(1)
		defer running.Add(-1)
		return directFleet(c, 0)(ctx, i)
	})
	if !errors.Is(err, cause) || running.Load() != 0 {
		t.Errorf("cancelled Run returned %v with %d workers running, want the cause %v and none", err, running.Load(), cause)
	}
}

// TestRunReturnsWaitsReport: a healthy fleet's Run returns the report Wait
// returns for the finished campaign.
func TestRunReturnsWaitsReport(t *testing.T) {
	c, srv := startCoord(t, CoordConfig{Campaign: testSpec(), ShardSize: 12})
	got, _ := json.Marshal(runFleet(t, c, srv.URL, 2, WorkerConfig{}))
	rep, err := c.Wait(context.Background())
	if want, _ := json.Marshal(rep); err != nil || string(got) != string(want) {
		t.Errorf("Run's report differs from Wait's (%v):\n Run %s\nWait %s", err, got, want)
	}
}

// TestWorkerSaysWhyItWasRefused: a refused completion reaches the worker's
// error with the coordinator's reason, in the same words over HTTP as by
// direct call; so does a lease refused with a status the protocol has no
// use for.
func TestWorkerSaysWhyItWasRefused(t *testing.T) {
	c, srv := startCoord(t, CoordConfig{Campaign: testSpec(), ShardSize: 4})
	var said []string
	for _, coord := range []coordinator{c, httpCoordinator{base: srv.URL, client: http.DefaultClient}} {
		w := &worker{cfg: WorkerConfig{ID: "w", PollEvery: time.Millisecond}, coord: coord}
		err := w.complete(completeRequest{Worker: "w", Shard: 99, Report: fakeWire(4)})
		if err == nil || !strings.Contains(err.Error(), "status 400: dist: unknown shard 99") {
			t.Fatalf("%T: refused completion gave %v, want the status and the reason", coord, err)
		}
		said = append(said, err.Error())
	}
	if said[0] != said[1] {
		t.Errorf("direct and HTTP workers say different things:\n%s\n%s", said[0], said[1])
	}

	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "coordinator draining", http.StatusServiceUnavailable)
	}))
	defer busy.Close()
	err := RunWorker(context.Background(), WorkerConfig{Coordinator: busy.URL, ID: "w"})
	if err == nil || !strings.Contains(err.Error(), "status 503: coordinator draining") {
		t.Errorf("lease answered 503 gave %v, want the status and the reason", err)
	}
}
