package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"sfi/internal/engine"
)

// goldenCensusTable is the SHA-256 of the census's outcome table: one byte
// per latch bit, in bit order, holding the bit's Outcome code.
const goldenCensusTable = "a18026e09691f9615905eba5ce6fb6797aa3fcc423e5512ce9b0d79251ba2a48"

// goldenCensusStrata is the census's class counts per unit × latch-type
// stratum, "key vanished/corrected/hang/checkstop/sdc". Pooled: 71,179
// vanished, 2,049 corrected, 53 hang, 414 checkstop, 6 SDC.
var goldenCensusStrata = map[string]string{
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
}

// TestCensusGolden injects every latch bit of the default p6lite
// configuration once, at workers 1 and 4, and pins the outcome of each: the
// per-stratum class counts and the digest of the one-byte-per-bit outcome
// table. The digest-pinned campaigns elsewhere in this package sample a few
// hundred bits; a change to the engine that moves one bit's outcome anywhere
// in the population fails here. It takes a few seconds, so -short and -race
// builds skip it (the race pass has the sampled campaigns).
func TestCensusGolden(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("the whole population: run without -short and -race")
	}
	for _, workers := range []int{1, 4} {
		cfg := DefaultCampaignConfig()
		cfg.Seed = 7
		cfg.Workers = workers
		db, err := engine.Census(cfg.Runner)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Flips = db.TotalBits()
		rep, err := RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != cfg.Flips {
			t.Fatalf("workers=%d: kept %d results of %d", workers, len(rep.Results), cfg.Flips)
		}
		pooled := fmt.Sprint(rep.Counts[Vanished], rep.Counts[Corrected], rep.Counts[Hang], rep.Counts[Checkstop], rep.Counts[SDC])
		if pooled != "71179 2049 53 414 6" {
			t.Errorf("workers=%d: pooled counts %s, want 71179 2049 53 414 6", workers, pooled)
		}
		table := make([]byte, cfg.Flips)
		seen := make([]bool, cfg.Flips)
		for _, r := range rep.Results {
			if seen[r.Bit] {
				t.Fatalf("workers=%d: bit %d injected twice", workers, r.Bit)
			}
			seen[r.Bit] = true
			table[r.Bit] = byte(r.Outcome)
		}
		sum := sha256.Sum256(table)
		if got := hex.EncodeToString(sum[:]); got != goldenCensusTable {
			t.Errorf("workers=%d: outcome table digest %s, want %s", workers, got, goldenCensusTable)
		}
		got := make(map[string]string, len(rep.ByStratum))
		for key, row := range rep.ByStratum {
			n := make([]string, len(Outcomes))
			for i, o := range Outcomes {
				n[i] = fmt.Sprint(row[o])
			}
			got[key] = strings.Join(n, "/")
		}
		if !maps.Equal(got, goldenCensusStrata) {
			for _, key := range slices.Sorted(maps.Keys(got)) {
				t.Logf("%q: %q,", key, got[key])
			}
			t.Errorf("workers=%d: per-stratum class counts differ from the golden table", workers)
		}
	}
}
