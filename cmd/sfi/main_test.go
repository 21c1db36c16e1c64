package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
