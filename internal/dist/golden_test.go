package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sfi/internal/core"
)

// Golden digests of distributed campaigns, recorded before the coordinator's
// epoch decision moved behind core's planner (see internal/core's
// golden_test.go for why constants and not a second path). The report
// digests are the SHA-256 of the merged report's wire JSON; the allocation
// digest covers the journal's {"shard":-2} lines, which are a pure function
// of the sealed counts at each epoch boundary, whatever order the workers
// completed the shards in.
const (
	goldenLoopbackUniform    = "b540c4ad7c410f1805b3789ce341a2034ae9df3afcd28946400fb07c785e1003"
	goldenLoopbackNeyman     = "e44db07853eb04215dedf18ba87ffbfa4fb84f4a47d8026864123f39f20fed0e"
	goldenLoopbackNeymanStop = "7a5f081276a5d11de2cad00f7ea72c3526e9c7595345b4a67bbbe60bbe0df620"
	goldenNeymanAllocLines   = "3d1abd3f8bbc269f38d2fdb9fe11e8cf682210373caa6ee2eec9416e7d893489"
	goldenNeymanStopAllocs   = "0d06771a8a3ecf94ac8a0b8ae477d6c2f4d29d018daf1f7eca12a1c67b0370e3"
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenLoopbackDigests(t *testing.T) {
	adaptive := stratifiedSpec()
	adaptive.Flips = 180
	adaptive.Alloc.Epochs = 6
	adaptive.Stop = core.StopConfig{TargetMargin: 0.9, MinPerClass: 3, StopOnConverge: true}
	for _, tc := range []struct {
		name              string
		spec              CampaignSpec
		shardSize         int
		wantReport, wantA string
	}{
		{"uniform", testSpec(), 12, goldenLoopbackUniform, ""},
		{"neyman", stratifiedSpec(), 10, goldenLoopbackNeyman, goldenNeymanAllocLines},
		{"neyman-stop", adaptive, 10, goldenLoopbackNeymanStop, goldenNeymanStopAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "journal.jsonl")
			c, srv := startCoord(t, CoordConfig{Campaign: tc.spec, ShardSize: tc.shardSize, Journal: journal})
			rep := runStratifiedFleet(t, c, srv.URL, 3)
			wire, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(wire); got != tc.wantReport {
				t.Errorf("report digest %s, want %s (total %d)", got, tc.wantReport, rep.Total)
			}
			if tc.wantA == "" {
				return
			}
			data, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			var allocs []byte
			n := 0
			for _, line := range bytes.SplitAfter(data, []byte("\n")) {
				if bytes.HasPrefix(line, []byte(`{"shard":-2,`)) {
					allocs = append(allocs, line...)
					n++
				}
			}
			if got := digest(allocs); got != tc.wantA {
				t.Errorf("digest of %d allocation lines %s, want %s", n, got, tc.wantA)
			}
		})
	}
}
