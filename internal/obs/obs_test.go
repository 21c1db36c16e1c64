package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestHistBucketing(t *testing.T) {
	var h Hist
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41}, {^uint64(0), 64},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	want := map[int]uint64{}
	for _, c := range cases {
		want[c.bucket]++
	}
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if s.Count != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", s.Count, len(cases))
	}
	var sum uint64
	for _, c := range cases {
		sum += c.v
	}
	if s.Sum != sum {
		t.Errorf("sum = %d, want %d", s.Sum, sum)
	}
}

func TestHistBucketBoundsCoverValues(t *testing.T) {
	// Every observed value must fall inside its bucket's [lo, hi] range.
	for _, v := range []uint64{0, 1, 2, 3, 5, 100, 4096, 1<<33 + 7} {
		var h Hist
		h.Observe(v)
		s := h.Snapshot()
		for i, n := range s.Buckets {
			if n == 0 {
				continue
			}
			lo, hi := bucketBounds(i)
			if v < lo || v > hi {
				t.Errorf("value %d landed in bucket %d spanning [%d,%d]", v, i, lo, hi)
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	for i := 0; i < 1000; i++ {
		h.Observe(100) // all mass in one bucket: [64,127]
	}
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		got := s.Quantile(q)
		if got < 64 || got > 127 {
			t.Errorf("q%.2f = %d, want within [64,127]", q, got)
		}
	}
	// Two separated modes: the median must sit in the lower, p99 in the upper.
	var h2 Hist
	for i := 0; i < 900; i++ {
		h2.Observe(10)
	}
	for i := 0; i < 100; i++ {
		h2.Observe(100_000)
	}
	s2 := h2.Snapshot()
	if p50 := s2.Quantile(0.5); p50 > 15 {
		t.Errorf("p50 = %d, want ~10", p50)
	}
	if p99 := s2.Quantile(0.99); p99 < 65536 {
		t.Errorf("p99 = %d, want in the upper mode", p99)
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram quantile/mean not 0")
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	for i := uint64(0); i < 100; i++ {
		a.Observe(i)
		b.Observe(i * 1000)
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	var ref Hist
	for i := uint64(0); i < 100; i++ {
		ref.Observe(i)
		ref.Observe(i * 1000)
	}
	if merged != ref.Snapshot() {
		t.Error("merged snapshot differs from jointly-observed reference")
	}
}

var testOutcomes = []string{"", "vanished", "corrected", "hang", "checkstop", "sdc"}

func TestMetricsSnapshotMergeAcrossWorkers(t *testing.T) {
	// Per-worker collectors recording concurrently; the merged snapshot
	// must equal the exact totals.
	const workers, perWorker = 4, 10_000
	ms := make([]*Metrics, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ms[w] = New(testOutcomes)
		wg.Add(1)
		go func(m *Metrics, w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				code := 1 + (i+w)%5
				m.Fold(Injection{Outcome: code, Unit: "LSU", LatchType: "FUNC",
					WallNs: uint64(1000 + i), RestoreNs: uint64(i), Cycles: uint64(i % 512),
					Detected: code == 2, DetectLat: uint64(i % 64)})
			}
		}(ms[w], w)
	}
	wg.Wait()
	merged := NewSnapshot()
	for _, m := range ms {
		merged.Merge(m.Snapshot())
	}
	if merged.Injections != workers*perWorker {
		t.Errorf("injections = %d, want %d", merged.Injections, workers*perWorker)
	}
	if merged.Restores != workers*perWorker {
		t.Errorf("restores = %d", merged.Restores)
	}
	var outcomeSum uint64
	for _, n := range merged.Outcomes {
		outcomeSum += n
	}
	if outcomeSum != workers*perWorker {
		t.Errorf("outcome counts sum to %d, want %d", outcomeSum, workers*perWorker)
	}
	if merged.ByUnit["LSU"]["corrected"] != merged.Outcomes["corrected"] {
		t.Errorf("by-unit corrected %d != total corrected %d",
			merged.ByUnit["LSU"]["corrected"], merged.Outcomes["corrected"])
	}
	if merged.InjectionNs.Count != workers*perWorker {
		t.Errorf("injection histogram count = %d", merged.InjectionNs.Count)
	}
	if merged.DetectCycles.Count != merged.Outcomes["corrected"] {
		t.Errorf("detect count %d != corrected %d",
			merged.DetectCycles.Count, merged.Outcomes["corrected"])
	}
}

func TestNilMetricsIsNoOp(t *testing.T) {
	var m *Metrics
	m.Fold(Injection{Outcome: 1, Unit: "LSU", LatchType: "FUNC", WallNs: 1, Cycles: 1, Detected: true})
	m.ObserveBatch(1, 1)
	s := m.Snapshot()
	if s.Injections != 0 || len(s.Outcomes) != 0 {
		t.Error("nil metrics recorded something")
	}
	var sink *TraceSink
	sink.Record(&TraceEvent{})
	if sink.Recorded() != 0 || sink.Dropped() != 0 || sink.Err() != nil {
		t.Error("nil sink not inert")
	}
}

func TestTraceSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf, TraceOptions{})
	for i := 0; i < 10; i++ {
		s.Record(&TraceEvent{Bit: i, Outcome: "vanished", Unit: "IFU"})
	}
	if s.Recorded() != 10 || s.Dropped() != 0 {
		t.Fatalf("recorded %d dropped %d", s.Recorded(), s.Dropped())
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d lines", len(lines))
	}
	for i, ln := range lines {
		var ev TraceEvent
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if ev.Seq != int64(i) || ev.Bit != i {
			t.Errorf("line %d: seq %d bit %d", i, ev.Seq, ev.Bit)
		}
	}
}

func TestTraceSinkSamplingAndBound(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf, TraceOptions{Sample: 3})
	for i := 0; i < 9; i++ {
		s.Record(&TraceEvent{Bit: i})
	}
	if s.Recorded() != 3 || s.Dropped() != 6 {
		t.Errorf("sample=3 over 9: recorded %d dropped %d", s.Recorded(), s.Dropped())
	}

	var buf2 bytes.Buffer
	s2 := NewTraceSink(&buf2, TraceOptions{Max: 5})
	for i := 0; i < 20; i++ {
		s2.Record(&TraceEvent{Bit: i})
	}
	if s2.Recorded() != 5 || s2.Dropped() != 15 {
		t.Errorf("max=5 over 20: recorded %d dropped %d", s2.Recorded(), s2.Dropped())
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errFail
	}
	f.n--
	return len(p), nil
}

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "forced write failure" }

func TestTraceSinkWriteError(t *testing.T) {
	s := NewTraceSink(&failWriter{n: 2}, TraceOptions{})
	for i := 0; i < 5; i++ {
		s.Record(&TraceEvent{})
	}
	if s.Recorded() != 2 || s.Dropped() != 3 {
		t.Errorf("recorded %d dropped %d", s.Recorded(), s.Dropped())
	}
	if s.Err() == nil {
		t.Error("write error not surfaced")
	}
}

func TestWritePrometheus(t *testing.T) {
	m := New(testOutcomes)
	m.Fold(Injection{Outcome: 1, Unit: "IFU", LatchType: "FUNC",
		WallNs: 5000, RestoreNs: 900, Cycles: 1200, Stepped: 450})
	// A batch lane: the pass's restore is ObserveBatch's to count, not its.
	m.Fold(Injection{Outcome: 2, Unit: "LSU", LatchType: "MODE", Lane: true})
	var buf bytes.Buffer
	if err := m.Snapshot().WritePrometheus(&buf, "sfi"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"sfi_injections_total 2",
		"sfi_cycles_total 1200",
		"sfi_stepped_cycles_total 450",
		`sfi_outcome_total{outcome="vanished"} 1`,
		`sfi_outcome_total{outcome="corrected"} 1`,
		`sfi_unit_outcome_total{unit="LSU",outcome="corrected"} 1`,
		`sfi_latchtype_outcome_total{type="FUNC",outcome="vanished"} 1`,
		`sfi_restore_ns_bucket{le="+Inf"} 1`,
		"sfi_restore_ns_sum 900",
		"sfi_injection_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus dump missing %q\n%s", want, out)
		}
	}
}

func TestSnapshotMergeEmpty(t *testing.T) {
	s := NewSnapshot()
	s.Merge(nil)
	m := New(testOutcomes)
	m.Fold(Injection{Outcome: 1, Unit: "IFU", LatchType: "FUNC"})
	s.Merge(m.Snapshot())
	if s.Outcomes["vanished"] != 1 {
		t.Error("merge into empty snapshot lost counts")
	}
}

// fillSnapshot builds a snapshot with n injections' worth of every
// counter family, offset by base so successive calls differ.
func fillSnapshot(n int, base uint64) *Snapshot {
	m := New([]string{"vanished", "corrected", "hang", "checkstop", "sdc"})
	for i := 0; i < n; i++ {
		in := Injection{WallNs: base + uint64(i), RestoreNs: base + uint64(i)/2,
			Cycles: 100 + base + uint64(i), Stepped: 40 + base + uint64(i), Unit: "FXU", LatchType: "FUNC"}
		if i%2 == 0 {
			in.Outcome, in.Unit, in.LatchType = 4, "LSU", "REGFILE"
			in.Detected, in.DetectLat = true, 7+base
		}
		m.Fold(in)
	}
	return m.Snapshot()
}

// TestFleetSealExactness is the no-double-count property the live fleet
// view depends on: a source's every snapshot replaces the one before, and
// sealing it with the exact final snapshot replaces the last — the fleet
// total must equal the finals alone.
func TestFleetSealExactness(t *testing.T) {
	f := NewFleet()

	// Source A: two snapshots, the second one twice, then a final that (as
	// in real shards) covers more than the last one reported.
	f.Observe("a", fillSnapshot(2, 5))
	for i := 0; i < 2; i++ {
		f.Observe("a", fillSnapshot(5, 5))
		if got := f.Snapshot(); !reflect.DeepEqual(got, fillSnapshot(5, 5)) {
			t.Fatalf("live fleet view %+v, want source a's newest snapshot", got)
		}
	}
	finalA := fillSnapshot(7, 5)
	f.Seal("a", finalA)

	// Source B: sealed with no deltas ever observed (shard completed
	// between heartbeats).
	finalB := fillSnapshot(4, 100)
	f.Seal("b", finalB)

	want := fillSnapshot(7, 5)
	want.Merge(finalB)
	if got := f.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sealed fleet view differs from merged finals:\n%+v\n%+v", got, want)
	}

	// Seal with nil final keeps the live snapshot (a source whose exact
	// total never arrives still counts what it reported).
	f.Observe("c", fillSnapshot(2, 40))
	f.Seal("c", nil)
	want.Merge(fillSnapshot(2, 40))
	if got := f.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("nil-final seal dropped the live snapshot:\n%+v\n%+v", got, want)
	}
}

func TestFleetDiscard(t *testing.T) {
	f := NewFleet()
	f.Observe("a", fillSnapshot(3, 5))
	f.Observe("b", fillSnapshot(2, 9))
	f.Discard("a")
	if got, want := f.Snapshot().Injections, uint64(2); got != want {
		t.Fatalf("after discard: %d injections, want %d", got, want)
	}
	// Discarding an unknown source is a no-op, as is everything on a nil
	// fleet.
	f.Discard("ghost")
	var nilFleet *Fleet
	nilFleet.Observe("x", fillSnapshot(1, 1))
	nilFleet.Seal("x", nil)
	nilFleet.Discard("x")
	if s := nilFleet.Snapshot(); !reflect.DeepEqual(s, NewSnapshot()) {
		t.Fatalf("nil fleet snapshot = %+v, want empty", s)
	}
}

// TestFleetSourceIsolation: the fleet shares no storage with its sources or
// its readers. A snapshot mutated after it was observed, and a view mutated
// after it was handed out, leave the fleet's count alone, and discarding one
// source leaves another's contribution in place.
func TestFleetSourceIsolation(t *testing.T) {
	f := NewFleet()
	delta := fillSnapshot(3, 5)
	f.Observe("a", delta)
	f.Observe("b", fillSnapshot(2, 5))
	delta.Injections = 999
	view := f.Snapshot()
	if view.Injections != 5 {
		t.Fatalf("fleet corrupted through an observed delta: %d injections", view.Injections)
	}
	view.Injections = 999
	f.Discard("b")
	if got := f.Snapshot().Injections; got != 3 {
		t.Fatalf("after discarding b: %d injections, want a's 3", got)
	}
}

// TestShardEventJSONL: shard lifecycle events and raw JSON lines share
// the sink with sampled injection events but bypass sampling and budget.
func TestShardEventJSONL(t *testing.T) {
	var buf bytes.Buffer
	// Sample 1000 + Max 1: injection events are throttled hard...
	sink := NewTraceSink(&buf, TraceOptions{Sample: 1000, Max: 1})
	sink.Record(&TraceEvent{Bit: 1, Outcome: "vanished"})
	sink.Record(&TraceEvent{Bit: 2, Outcome: "vanished"}) // sampled out
	// ...but lifecycle events always land.
	for i := 0; i < 3; i++ {
		sink.RecordJSON(&ShardEvent{Kind: "lease", Shard: i, Worker: "w", Attempt: 1})
	}
	sink.RecordJSON(map[string]any{"custom": true})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("sink wrote %d lines, want 5 (1 injection + 3 shard + 1 raw)", len(lines))
	}
	var ev ShardEvent
	if err := json.Unmarshal([]byte(lines[2]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "lease" || ev.Shard != 1 || ev.Worker != "w" {
		t.Fatalf("shard event line = %+v", ev)
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Errorf("invalid JSONL line: %s", line)
		}
	}
}
