package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sfi/internal/dist"
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
	fs := flag.NewFlagSet("sfi", flag.ContinueOnError)
	spec := dist.CampaignFlags(fs, 1000)
	if err := fs.Parse([]string{"-flips", "12", "-seed", "7", "-type", "MODE"}); err != nil {
		t.Fatal(err)
	}
	a := campaignArgs{workers: 1, types: true}
	var err error
	if a.spec, err = spec(); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error { return run(a) })
	_, table, ok := strings.Cut(out, "per latch type:\n")
	if !ok {
		t.Fatalf("no per-latch-type table in:\n%s", out)
	}
	rows := strings.Split(strings.TrimSpace(table), "\n")
	if len(rows) != 1 || !strings.HasPrefix(rows[0], "MODE ") {
		t.Errorf("-types rows for a MODE campaign:\n%s\nwant the MODE row alone", table)
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	err = f()
	os.Stdout = saved
	w.Close()
	out := <-read
	if err != nil {
		t.Fatal(err)
	}
	return out
}
