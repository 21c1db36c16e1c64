package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sfi/internal/dist"
	"sfi/internal/engine"
	"sfi/internal/latch"
)

// TestDistRefusesLocalObservability: -dist wires neither the injection trace
// nor the debug listener, so asking for one with it is refused up front —
// before a coordinator, a runner or the trace file exists — naming the flag
// and where a fleet keeps that output.
func TestDistRefusesLocalObservability(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "x.jsonl")
	for _, tc := range []struct {
		args        campaignArgs
		flag, where string
	}{
		{campaignArgs{trace: trace}, "-trace ", "sfi-coord -shard-trace"},
		{campaignArgs{traceSample: 4}, "-trace-sample ", "sfi-worker -trace-sample"},
		{campaignArgs{httpAddr: "127.0.0.1:0"}, "-http ", "sfi-worker -http"},
	} {
		a := tc.args
		// A backend no process has: reaching campaign set-up would fail on it.
		a.spec.Flips, a.dist, a.spec.Runner.Backend = 50, 2, "no-such-backend"
		err := run(a)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) || !strings.Contains(err.Error(), tc.where) {
			t.Errorf("run(%+v) = %v, want a refusal naming %q and %q", tc.args, err, tc.flag, tc.where)
		}
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Errorf("refused run left %s behind (stat: %v)", trace, err)
	}
}

// TestTypesListsOnlySeenTypes: a -type MODE campaign injects no FUNC,
// REGFILE or GPTR latch, so -types must print the MODE row alone — a 0.00%
// row for a type never sampled reads like a measured zero.
func TestTypesListsOnlySeenTypes(t *testing.T) {
	a := campaignArgs{spec: specOf(t, "-flips", "12", "-seed", "7", "-type", "MODE"), workers: 1, types: true}
	out := capture(t, &os.Stdout, func() error { return run(a) })
	_, table, ok := strings.Cut(out, "per latch type:\n")
	if !ok {
		t.Fatalf("no per-latch-type table in:\n%s", out)
	}
	rows := strings.Split(strings.TrimSpace(table), "\n")
	if len(rows) != 1 || !strings.HasPrefix(rows[0], "MODE ") {
		t.Errorf("-types rows for a MODE campaign:\n%s\nwant the MODE row alone", table)
	}
}

// TestProgressEndsOnTheLastLine: with progress on, a local campaign and a
// -dist one each leave the progress line at the finished campaign's count,
// whatever the redraw period let through before it.
func TestProgressEndsOnTheLastLine(t *testing.T) {
	for _, dist := range []int{0, 2} {
		a := campaignArgs{spec: specOf(t, "-flips", "40", "-seed", "7"), workers: 2, dist: dist, progress: true, jsonOut: true}
		var stdout string
		stderr := capture(t, &os.Stderr, func() error {
			stdout = capture(t, &os.Stdout, func() error { return run(a) })
			return nil
		})
		if !strings.Contains(stdout, `"total": 40,`) {
			t.Errorf("-dist %d: report %q lacks its 40 injections", dist, stdout)
		}
		line := strings.TrimSpace(stderr[strings.LastIndex(stderr, "\r")+1:])
		if !strings.HasPrefix(line, "40/40 (100.0%)") {
			t.Errorf("-dist %d: progress ends on %q, want the 40/40 (100.0%%) line\nstderr: %q", dist, line, stderr)
		}
	}
}

// TestDistSummaryCountsTheFleet: a -dist 2 campaign at one model copy per
// shard runs two copies at once, and its summary line divides busy time by
// both, as the fleet's progress line does at one copy per worker.
func TestDistSummaryCountsTheFleet(t *testing.T) {
	a := campaignArgs{spec: specOf(t, "-flips", "40", "-seed", "7"), workers: 1, dist: 2}
	var stdout string
	capture(t, &os.Stderr, func() error {
		stdout = capture(t, &os.Stdout, func() error { return run(a) })
		return nil
	})
	line, _, _ := strings.Cut(stdout, "\n")
	var busy float64
	if !strings.HasPrefix(line, "campaign: 40 injections") || !strings.Contains(line, ", 2 workers (") {
		t.Fatalf("-dist 2 summary %q, want 40 injections on 2 workers", line)
	}
	if _, err := fmt.Sscanf(line[strings.LastIndex(line, "(")+1:], "%f%% busy)", &busy); err != nil || busy > 100 {
		t.Errorf("-dist 2 summary %q: busy %.0f%% (%v), want at most 100%%", line, busy, err)
	}
}

func init() {
	// A backend the flags pass (its census is p6lite's) whose build panics.
	engine.Register("sfi-test-panics", func(engine.Config) (engine.Backend, error) { panic("sfi-test-panics builds no model") })
	engine.RegisterCensus("sfi-test-panics", func(cfg engine.Config) (*latch.DB, error) { cfg.Backend = ""; return engine.Census(cfg) })
}

// TestDistFailsWhenEveryWorkerDoes: a -dist campaign whose every shard fails
// ends, progress line on, in an error naming the failure: each loopback
// worker stops on its first failed shard, and a fleet of stopped workers is
// over, whatever attempts its shards have left.
func TestDistFailsWhenEveryWorkerDoes(t *testing.T) {
	for _, n := range []int{1, 3} {
		a := campaignArgs{spec: specOf(t, "-flips", "40", "-backend", "sfi-test-panics"), workers: 1, dist: n, progress: true}
		done, err := make(chan error, 1), errors.New("still running after 30 s")
		capture(t, &os.Stderr, func() error {
			go func() { done <- run(a) }()
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "builds no model") {
			t.Errorf("-dist %d over a model whose build panics: %v, want an error naming the panic", n, err)
		}
	}
}

// specOf parses a campaign's flags as sfi does.
func specOf(t *testing.T, args ...string) dist.CampaignSpec {
	t.Helper()
	fs := flag.NewFlagSet("sfi", flag.ContinueOnError)
	spec := dist.CampaignFlags(fs, 1000)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s, err := spec()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// capture runs f with *stream (os.Stdout or os.Stderr) redirected and
// returns what it wrote.
func capture(t *testing.T, stream **os.File, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := *stream
	*stream = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	err = f()
	*stream = saved
	w.Close()
	out := <-read
	if err != nil {
		t.Fatal(err)
	}
	return out
}
