package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sfi/internal/core"
	"sfi/internal/engine"
	"sfi/internal/obs"
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

// Recorded before the coordinator ran uniform campaigns as one keyless epoch
// (PR 19): what a uniform campaign's mid-epoch stop writes, and that a
// uniform campaign whose rule holds only once its last shard lands is
// complete, not stopped. Both runs use one worker, so shards complete in
// ledger order and the journal is a pure function of the spec.
const (
	goldenUniformStopReport  = "f6d3d8f3ff5a661c8c2bfbdd5037cb33f76c70fd70f8e2db8bad93deaec26478"
	goldenUniformStopJournal = "f7f8d46542526d008807eb218be157e860bbcf8f9473393929318cfd8ab5f828" // header line + {"shard":-1} line
	goldenUniformStopTotal   = 60
	goldenUniformLastShard   = "8ad048fa7c4270c64f8cbff08aa983056c0de960b4ae0691de2099985811eff9"
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
			// The digests were recorded over HTTP. Workers calling the
			// coordinator directly, handing it their request values instead of
			// JSON copies, must reach the same bytes.
			for _, transport := range []string{"http", "direct"} {
				t.Run(transport, func(t *testing.T) {
					journal := filepath.Join(t.TempDir(), "journal.jsonl")
					cfg := CoordConfig{Campaign: tc.spec, ShardSize: tc.shardSize, Journal: journal}
					c, srv := startCoord(t, cfg)
					url := srv.URL
					if transport == "direct" {
						url = ""
					}
					rep := runFleet(t, c, url, 3, WorkerConfig{})
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
					allocs, n := journalLines(t, journal, `{"shard":-2,`)
					if got := digest(allocs); got != tc.wantA {
						t.Errorf("digest of %d allocation lines %s, want %s", n, got, tc.wantA)
					}
				})
			}
		})
	}
}

// journalLines returns, in file order, the journal lines that start with one
// of the prefixes, and how many there are.
func journalLines(t *testing.T, path string, prefixes ...string) (lines []byte, n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		for _, prefix := range prefixes {
			if bytes.HasPrefix(line, []byte(prefix)) {
				lines = append(lines, line...)
				n++
			}
		}
	}
	return lines, n
}

// TestGoldenUniformStop pins a uniform campaign's mid-epoch stop: the report,
// the decision's n, and the journal's header and stop line byte for byte. The
// stop falls at the smallest converged shard prefix, so four HTTP workers,
// completing shards in whatever order they finish, reach the bytes one worker
// recorded.
func TestGoldenUniformStop(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "journal.jsonl")
			spec := adaptiveSpec()
			spec.Stop.TargetMargin = 0.2 // tight enough that several shards with a mixed outcome count seal first
			c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 10, Journal: journal})
			rep := runFleet(t, c, srv.URL, workers, WorkerConfig{})
			wire, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(wire); got != goldenUniformStopReport {
				t.Errorf("report digest %s, want %s (total %d)", got, goldenUniformStopReport, rep.Total)
			}
			if d := c.StopDecision(); d == nil || d.Total != goldenUniformStopTotal {
				t.Errorf("stop decision %+v, want one over n=%d", d, goldenUniformStopTotal)
			}
			lines, n := journalLines(t, journal, `{"v":`, `{"shard":-1,`)
			if n != 2 {
				t.Errorf("journal holds %d header and stop lines, want one of each", n)
			}
			// The header's fault-model binding is the one field newer than the
			// recorded digest: cut out, the two lines are the recorded bytes.
			model := `,"model":"` + engine.ImageDigest(spec.Runner) + `"`
			if !bytes.Contains(lines, []byte(model+"}\n")) {
				t.Errorf("journal header does not end in %s:\n%s", model, lines)
			}
			lines = bytes.Replace(lines, []byte(model), nil, 1)
			if got := digest(lines); got != goldenUniformStopJournal {
				t.Errorf("digest of journal header + stop line %s, want %s:\n%s", got, goldenUniformStopJournal, lines)
			}
			if _, allocs := journalLines(t, journal, `{"shard":-2,`); allocs != 0 {
				t.Errorf("uniform journal holds %d allocation lines", allocs)
			}
		})
	}
}

// TestGoldenUniformConvergedAtLastShard: the rule needs every injection of
// the budget, so it first holds when the last shard lands — and then the
// campaign is complete, not stopped early: no stop line, no stop decision.
func TestGoldenUniformConvergedAtLastShard(t *testing.T) {
	spec := testSpec()
	spec.Flips = 24
	spec.Stop = core.StopConfig{TargetMargin: 0.999, MinPerClass: 24, StopOnConverge: true}
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 12, Journal: journal})
	rep := runFleet(t, c, srv.URL, 1, WorkerConfig{})
	if rep.Total != spec.Flips || rep.Convergence == nil || !rep.Convergence.Converged {
		t.Fatalf("report total %d convergence %+v, want the whole budget and a converged rule", rep.Total, rep.Convergence)
	}
	wire, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(wire); got != goldenUniformLastShard {
		t.Errorf("report digest %s, want %s", got, goldenUniformLastShard)
	}
	if d := c.StopDecision(); d != nil {
		t.Errorf("complete campaign carries a stop decision: %+v", d)
	}
	if st := c.Status(); st.StoppedEarly || st.States["completed"] != st.Shards {
		t.Errorf("status stopped_early %v, states %v; want every shard done and no early stop", st.StoppedEarly, st.States)
	}
	if _, stops := journalLines(t, journal, `{"shard":-1,`); stops != 0 {
		t.Errorf("complete campaign's journal holds %d stop lines", stops)
	}
}

// journalSkeleton is a journal with every shard-report line cut down to its
// shard id (reports carry wall-clock metrics): the header, the order shards
// completed in, and every allocation and stop line byte for byte.
func journalSkeleton(data []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if i := bytes.Index(line, []byte(`,"report":`)); i >= 0 && bytes.HasPrefix(line, []byte(`{"shard":`)) {
			line = append(bytes.Clone(line[:i]), '\n')
		}
		out = append(out, line...)
	}
	return out
}

// parentJournal is one of testdata's parent journals: the campaign it was
// written for, and the report it settles to.
type parentJournal struct {
	name      string
	spec      CampaignSpec
	shardSize int
	want      string // "": the journal is refused
	stopped   bool
}

func parentJournals() []parentJournal {
	uniformStop := adaptiveSpec()
	uniformStop.Stop.TargetMargin = 0.2
	neymanStop := stratifiedSpec()
	neymanStop.Flips = 180
	neymanStop.Alloc.Epochs = 6
	neymanStop.Stop = core.StopConfig{TargetMargin: 0.9, MinPerClass: 3, StopOnConverge: true}
	return []parentJournal{
		{"uniform", testSpec(), 12, "", false},
		{"uniform-stop", uniformStop, 10, "", true},
		{"neyman", stratifiedSpec(), 10, goldenLoopbackNeyman, false},
		{"neyman-stop", neymanStop, 10, goldenLoopbackNeymanStop, true},
	}
}

// TestParentJournalsResume resumes journals written by the commit before the
// coordinator's epoch refactor (98f5ed4; testdata/parent-*.journal, one
// worker each, specs as in the golden tests above). Replayed whole, each
// settles with no worker to the report its campaign produced live; cut back
// to its first half — mid-epoch for the Neyman ones, before the stop line for
// the stopped ones — one worker finishes it to that same report, and to the
// parent's journal line for line. The uniform journals' shard lines carry no
// unit × latch-type cross (only the per-unit and per-type rows reports sent
// before the cross was their one breakdown): a coordinator refuses them,
// naming the first such shard, rather than seal counts it cannot evaluate.
func TestParentJournalsResume(t *testing.T) {
	for _, tc := range parentJournals() {
		t.Run(tc.name, func(t *testing.T) {
			parent, err := os.ReadFile(filepath.Join("testdata", "parent-"+tc.name+".journal"))
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(parent, []byte("\n"))
			for _, keep := range []int{len(lines), len(lines) / 2} {
				journal := filepath.Join(t.TempDir(), "journal.jsonl")
				if err := os.WriteFile(journal, bytes.Join(lines[:keep], nil), 0o644); err != nil {
					t.Fatal(err)
				}
				cfg := CoordConfig{Campaign: tc.spec, ShardSize: tc.shardSize, Journal: journal}
				if tc.want == "" {
					var first journalEntry
					if err := json.Unmarshal(lines[1], &first); err != nil || first.Report == nil {
						t.Fatalf("line 2 is not a shard line (%v): %s", err, lines[1])
					}
					c, err := NewCoordinator(cfg)
					if err == nil {
						c.Close()
						t.Fatalf("resumed from %d of %d lines: a journal without the cross was replayed", keep, len(lines))
					}
					if shard := fmt.Sprintf("shard %d ", first.Shard); !strings.Contains(err.Error(), shard) {
						t.Errorf("resumed from %d of %d lines: refusal %q does not name %q", keep, len(lines), err, shard)
					}
					continue
				}
				c, srv := startCoord(t, cfg)
				workers := 1
				if keep == len(lines) {
					workers = 0 // nothing left to run
				}
				rep := runFleet(t, c, srv.URL, workers, WorkerConfig{})
				wire, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if got := digest(wire); got != tc.want {
					t.Errorf("resumed from %d of %d lines: report digest %s, want %s (total %d)",
						keep, len(lines), got, tc.want, rep.Total)
				}
				if stopped := c.StopDecision() != nil; stopped != tc.stopped {
					t.Errorf("resumed from %d of %d lines: stopped early %v, want %v", keep, len(lines), stopped, tc.stopped)
				}
				got, err := os.ReadFile(journal)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := journalSkeleton(got), journalSkeleton(parent); !bytes.Equal(got, want) {
					t.Errorf("resumed from %d of %d lines: journal differs from the parent's:\n got %s\nwant %s",
						keep, len(lines), got, want)
				}
			}
		})
	}
}

// Recorded with one HTTP worker over a fixed-N campaign of 20 shards (the
// benchmark's dist_loopback shape on the test model): the merged report, and
// the journal with each shard line's metrics cut off (they hold wall-clock
// histograms), so header and shard lines, in the order they were written,
// are pinned byte for byte.
const (
	goldenLoneWorkerReport  = "ad6c03562e0096fd029fc7c239f93d9e66c266e405417a09c52972b6c5d74957"
	goldenLoneWorkerJournal = "fb4c0c12b1de83947a8ef55d25ba0004edeab858e2b189ff751b02c187aa1e66"
)

// journalWithoutMetrics is a journal with the metrics object that ends every
// shard report cut out of its line.
func journalWithoutMetrics(data []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if i := bytes.LastIndex(line, []byte(`,"metrics":{`)); i >= 0 && bytes.HasPrefix(line, []byte(`{"shard":`)) {
			line = append(bytes.Clone(line[:i]), "}}\n"...)
		}
		out = append(out, line...)
	}
	return out
}

// TestGoldenLoneWorkerJournal pins what one HTTP worker leaves behind over a
// 500-flip campaign cut into 25-injection shards: the report and the
// journal's bytes, whatever the worker's lease holds at a time.
func TestGoldenLoneWorkerJournal(t *testing.T) {
	spec := testSpec()
	spec.Flips, spec.ShardWorkers = 500, 1
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 25, LeaseTTL: time.Minute, Journal: journal})
	rep := runFleet(t, c, srv.URL, 1, WorkerConfig{})
	wire, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(wire); got != goldenLoneWorkerReport {
		t.Errorf("report digest %s, want %s (total %d)", got, goldenLoneWorkerReport, rep.Total)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	stripped := journalWithoutMetrics(data)
	if n := bytes.Count(stripped, []byte(`,"metrics":`)); n != 0 || bytes.Count(stripped, []byte("\n")) != 21 {
		t.Fatalf("journal of %d lines keeps %d metrics objects, want a header and 20 shard lines without any:\n%s",
			bytes.Count(stripped, []byte("\n")), n, stripped)
	}
	if got := digest(stripped); got != goldenLoneWorkerJournal {
		t.Errorf("journal digest %s, want %s", got, goldenLoneWorkerJournal)
	}
}

// TestWorkerDrawsOnce pins what a worker pays once per campaign rather than
// once per shard: one HTTP worker over TestGoldenLoneWorkerJournal's
// 20-shard uniform campaign draws its sequence once (one "sequence.draw"
// span in the coordinator's trace beside 20 "shard.run" spans) and leaves
// that test's report and journal digests, and one worker over a stratified
// campaign of many stratum shards builds its sample plan once.
func TestWorkerDrawsOnce(t *testing.T) {
	count := func(tr *obs.Tracer) map[string]int {
		if len(tr.Spans()) != tr.Total() {
			t.Fatalf("the trace ring dropped %d spans", tr.Total()-len(tr.Spans()))
		}
		n := make(map[string]int)
		for _, sp := range tr.Spans() {
			n[sp.Name]++
		}
		return n
	}
	t.Run("uniform", func(t *testing.T) {
		spec := testSpec()
		spec.Flips, spec.ShardWorkers = 500, 1
		journal := filepath.Join(t.TempDir(), "journal.jsonl")
		tr := obs.NewTracer(1)
		c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 25, LeaseTTL: time.Minute, Journal: journal, Tracer: tr})
		rep := runFleet(t, c, srv.URL, 1, WorkerConfig{})
		if n := count(tr); n["sequence.draw"] != 1 || n["shard.run"] != 20 {
			t.Errorf("one worker over 20 shards drew its sequence %d times over %d shard.run spans, want once over 20",
				n["sequence.draw"], n["shard.run"])
		}
		wire, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(wire); got != goldenLoneWorkerReport {
			t.Errorf("report digest %s, want %s", got, goldenLoneWorkerReport)
		}
		data, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(journalWithoutMetrics(data)); got != goldenLoneWorkerJournal {
			t.Errorf("journal digest %s, want %s", got, goldenLoneWorkerJournal)
		}
	})
	t.Run("stratified", func(t *testing.T) {
		spec := stratifiedSpec()
		spec.ShardWorkers = 1
		tr := obs.NewTracer(1)
		c, srv := startCoord(t, CoordConfig{Campaign: spec, ShardSize: 5, LeaseTTL: time.Minute, Tracer: tr})
		runFleet(t, c, srv.URL, 1, WorkerConfig{})
		n := count(tr)
		if n["sequence.draw"] != 1 || n["shard.run"] < 10 {
			t.Errorf("one worker over %d stratum shards built its plan %d times, want once over at least 10",
				n["shard.run"], n["sequence.draw"])
		}
	})
}
