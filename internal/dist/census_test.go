package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"sfi/internal/core"
	"sfi/internal/engine"
)

// fleetCensus is one census a fleet must reproduce bit for bit: every latch
// bit of a runner configuration injected once, its pooled and per-stratum
// class counts ("vanished corrected hang checkstop sdc", and
// "key v/c/h/cs/sdc") and the SHA-256 of its one-byte-per-bit outcome table.
type fleetCensus struct {
	backend string
	pooled  string
	table   string
	strata  map[string]string
}

// The p6lite census is core's TestCensusGolden's, restated: a campaign
// leased in shards to a fleet must give every bit the outcome the local
// executor gives it. The awan census is the default design, 32 16-bit
// checked ALUs of 1,600 latch bits, recorded through the fleet and equal to
// the local executor's at workers 1 and 4.
var fleetCensuses = []fleetCensus{
	{
		backend: "p6lite",
		pooled:  "71179 2049 53 414 6",
		table:   "a18026e09691f9615905eba5ce6fb6797aa3fcc423e5512ce9b0d79251ba2a48",
		strata: map[string]string{
			"Core/FUNC":   "6564/5/1/145/0",
			"Core/GPTR":   "504/0/0/8/0",
			"Core/MODE":   "460/0/4/16/0",
			"FPU/FUNC":    "1092/8/0/0/0",
			"FPU/GPTR":    "56/0/0/8/0",
			"FPU/MODE":    "112/0/0/16/0",
			"FPU/REGFILE": "8256/0/0/0/0",
			"FXU/FUNC":    "6756/77/0/0/3",
			"FXU/GPTR":    "116/0/4/8/0",
			"FXU/MODE":    "166/2/8/16/0",
			"FXU/REGFILE": "3797/363/0/0/0",
			"IDU/FUNC":    "5777/160/0/0/0",
			"IDU/GPTR":    "116/0/4/8/0",
			"IDU/MODE":    "1254/2/8/16/0",
			"IDU/REGFILE": "255/72/0/0/0",
			"IFU/FUNC":    "13960/564/0/0/3",
			"IFU/GPTR":    "116/0/4/8/0",
			"IFU/MODE":    "230/2/8/16/0",
			"LSU/FUNC":    "19637/793/0/0/0",
			"LSU/GPTR":    "116/0/4/8/0",
			"LSU/MODE":    "231/1/8/16/0",
			"RUT/FUNC":    "1536/0/0/101/0",
			"RUT/GPTR":    "24/0/0/8/0",
			"RUT/MODE":    "48/0/0/16/0",
		},
	},
	{
		backend: "awan",
		pooled:  "510 0 0 576 514",
		table:   "59a23fcad262eadf17f67967db59b45ff11ac5aa12d5937a2f670adbfa0782a6",
		strata: map[string]string{
			"ALU/FUNC":    "0/0/0/576/0",
			"ALU/REGFILE": "510/0/0/0/514",
		},
	},
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestFleetCensusGolden runs each census through a coordinator and two
// workers calling it directly, at one model copy each, and holds the merged
// report to the pinned counts and table. It takes seconds, so -short and
// -race builds skip it.
func TestFleetCensusGolden(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("whole populations: run without -short and -race")
	}
	for _, want := range fleetCensuses {
		rc := core.DefaultRunnerConfig()
		rc.Backend = want.backend
		db, err := engine.Census(rc)
		if err != nil {
			t.Fatal(err)
		}
		spec := CampaignSpec{Runner: rc, Seed: 7, Flips: db.TotalBits(), KeepResults: true, ShardWorkers: 1}
		c, err := NewCoordinator(CoordConfig{Campaign: spec})
		if err != nil {
			t.Fatal(err)
		}
		rep := runFleet(t, c, "", 2, WorkerConfig{})
		c.Close()

		if len(rep.Results) != spec.Flips {
			t.Fatalf("%s: kept %d results of %d", want.backend, len(rep.Results), spec.Flips)
		}
		pooled := fmt.Sprint(rep.Counts[core.Vanished], rep.Counts[core.Corrected], rep.Counts[core.Hang],
			rep.Counts[core.Checkstop], rep.Counts[core.SDC])
		if pooled != want.pooled {
			t.Errorf("%s: pooled counts %s, want %s", want.backend, pooled, want.pooled)
		}
		table := make([]byte, spec.Flips)
		seen := make([]bool, spec.Flips)
		for _, r := range rep.Results {
			if seen[r.Bit] {
				t.Fatalf("%s: bit %d injected twice", want.backend, r.Bit)
			}
			seen[r.Bit] = true
			table[r.Bit] = byte(r.Outcome)
		}
		sum := sha256.Sum256(table)
		if got := hex.EncodeToString(sum[:]); got != want.table {
			t.Errorf("%s: outcome table digest %s, want %s", want.backend, got, want.table)
		}
		got := make(map[string]string, len(rep.ByStratum))
		for key, row := range rep.ByStratum {
			n := make([]string, len(core.Outcomes))
			for i, o := range core.Outcomes {
				n[i] = fmt.Sprint(row[o])
			}
			got[key] = strings.Join(n, "/")
		}
		if !maps.Equal(got, want.strata) {
			for _, key := range slices.Sorted(maps.Keys(got)) {
				t.Logf("%q: %q,", key, got[key])
			}
			t.Errorf("%s: per-stratum class counts differ from the golden table", want.backend)
		}
	}
}
