package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"sfi/internal/engine"
	_ "sfi/internal/engine/awan"
	"sfi/internal/obs"
)

// awanCampaignConfig returns a small gate-level campaign whose sampled
// population exercises every register class of the checked-ALU design.
func awanCampaignConfig() CampaignConfig {
	c := DefaultCampaignConfig()
	c.Runner.Backend = "awan"
	c.Runner.Awan.Width = 8
	c.Runner.Awan.Lanes = 6 // population: 6 × (3·8 + 2) = 156 bits
	c.Seed = 7
	c.Flips = 120
	c.Workers = 4
	return c
}

// reportDump renders a report for byte-for-byte comparison: the stable
// wire JSON plus every kept Result verbatim (the wire format elides
// vanished injections, the dump must not).
func reportDump(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("workers=%d wire=%s results=%+v", rep.Workers, b, rep.Results)
}

// TestBatchScalarEquivalence is the tentpole's correctness gate: the same
// (seed, flips, filter) campaign run through the bit-parallel batch path
// and the scalar path must produce byte-identical Reports, for toggle,
// sticky (bounded and permanent) and multi-bit-span injections.
func TestBatchScalarEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*CampaignConfig)
	}{
		{"toggle", func(c *CampaignConfig) {}},
		{"sticky", func(c *CampaignConfig) {
			c.Runner.Mode = engine.Sticky
			c.Runner.StickyCycles = 9
		}},
		{"sticky-permanent", func(c *CampaignConfig) {
			c.Runner.Mode = engine.Sticky
			c.Runner.StickyCycles = 0
		}},
		{"span3", func(c *CampaignConfig) { c.Runner.SpanBits = 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batchCfg := awanCampaignConfig()
			tc.mutate(&batchCfg)
			scalarCfg := batchCfg
			scalarCfg.Runner.BatchLanes = 1

			batchRep, err := RunCampaign(batchCfg)
			if err != nil {
				t.Fatal(err)
			}
			scalarRep, err := RunCampaign(scalarCfg)
			if err != nil {
				t.Fatal(err)
			}
			if bj, sj := reportDump(t, batchRep), reportDump(t, scalarRep); bj != sj {
				t.Errorf("batch and scalar reports differ\nbatch:  %s\nscalar: %s", bj, sj)
			}
		})
	}
}

// TestBatchDeterministicAcrossWorkers: the batch plan is a pure function
// of the sample, so worker count must not change any per-injection result.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	base := awanCampaignConfig()
	var reps []*Report
	for _, w := range []int{1, 4} {
		cfg := base
		cfg.Workers = w
		rep, err := RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep.Workers = 0 // the only field legitimately tied to worker count
		reps = append(reps, rep)
	}
	if a, b := reportDump(t, reps[0]), reportDump(t, reps[1]); a != b {
		t.Errorf("batch campaign differs across worker counts\n1 worker:  %s\n4 workers: %s", a, b)
	}
}

// TestOneFlipBatchPath is the short-final-batch regression: a 1-flip
// campaign on the batch path runs a single 1-lane pass (all other lanes
// masked off) and must classify exactly like the scalar path.
func TestOneFlipBatchPath(t *testing.T) {
	cfg := awanCampaignConfig()
	cfg.Flips = 1
	cfg.Workers = 1
	cfg.Obs.Live = new(Live)

	batchRep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batchRep.Metrics == nil || batchRep.Metrics.Batches != 1 {
		t.Fatalf("1-flip campaign should run exactly one batched pass, metrics: %+v", batchRep.Metrics)
	}
	if occ := batchRep.Metrics.LaneOccupancy; occ.Count != 1 || occ.Sum != 1 {
		t.Errorf("lane occupancy should record one 1-lane pass, got count=%d sum=%d", occ.Count, occ.Sum)
	}

	scalarCfg := cfg
	scalarCfg.Obs.Live = nil
	scalarCfg.Runner.BatchLanes = 1
	scalarRep, err := RunCampaign(scalarCfg)
	if err != nil {
		t.Fatal(err)
	}
	batchRep.Metrics = nil // batching legitimately changes restore/batch metrics
	if bj, sj := reportDump(t, batchRep), reportDump(t, scalarRep); bj != sj {
		t.Errorf("1-flip batch report differs from scalar\nbatch:  %s\nscalar: %s", bj, sj)
	}
}

// TestBatchLaneOccupancyMetrics: a batched campaign reports its pass count
// and per-pass occupancy, and occupancy totals the injection count.
func TestBatchLaneOccupancyMetrics(t *testing.T) {
	cfg := awanCampaignConfig()
	cfg.Obs.Live = new(Live)
	cfg.Obs.Tracer = obs.NewTracer(cfg.Seed)
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if m == nil || m.Batches == 0 {
		t.Fatalf("batched campaign recorded no batches: %+v", m)
	}
	if m.LaneOccupancy.Count != m.Batches {
		t.Errorf("occupancy count %d != batches %d", m.LaneOccupancy.Count, m.Batches)
	}
	if m.LaneOccupancy.Sum != uint64(cfg.Flips) {
		t.Errorf("occupancy sum %d != flips %d", m.LaneOccupancy.Sum, cfg.Flips)
	}
	// The whole point of batching: a pass retires many injections. Grouping
	// 120 flips by checkpoint phase fills 15 lanes a pass on average; below
	// 8 the lane speedup the awan_lanes workload measures is gone.
	if m.LaneOccupancy.Sum < 8*m.Batches {
		t.Errorf("batching ineffective: %d passes for %d flips, mean occupancy %.1f < 8",
			m.Batches, cfg.Flips, float64(m.LaneOccupancy.Sum)/float64(m.Batches))
	}
	// Tracing costs a span per pass (plus campaign.run, sample, merge),
	// never one per injection.
	if got, want := cfg.Obs.Tracer.Total(), int(m.Batches)+3; got != want {
		t.Errorf("%d injections in %d passes recorded %d spans, want %d", rep.Total, m.Batches, got, want)
	}
}

// TestPlanBatches: the plan partitions every sample position, respects the
// size bound, and groups only positions sharing a checkpoint phase.
func TestPlanBatches(t *testing.T) {
	bits := make([]int, 100)
	for i := range bits {
		bits[i] = 3*i + 1
	}
	const phases, size = 8, 7
	batches := planBatches(bits, phases, size)
	seen := make(map[int]bool)
	for _, b := range batches {
		if len(b) == 0 || len(b) > size {
			t.Fatalf("batch size %d out of (0,%d]", len(b), size)
		}
		ck0, _ := injectionSchedule(bits[b[0]], phases)
		for _, pos := range b {
			if seen[pos] {
				t.Fatalf("position %d planned twice", pos)
			}
			seen[pos] = true
			if ck, _ := injectionSchedule(bits[pos], phases); ck != ck0 {
				t.Fatalf("batch mixes phases %d and %d", ck0, ck)
			}
		}
	}
	if len(seen) != len(bits) {
		t.Fatalf("planned %d of %d positions", len(seen), len(bits))
	}

	// Scalar fallback: every position is its own batch, in sample order.
	scalar := planBatches(bits, phases, 1)
	if len(scalar) != len(bits) {
		t.Fatalf("scalar plan has %d batches for %d bits", len(scalar), len(bits))
	}
	for i, b := range scalar {
		if len(b) != 1 || b[0] != i {
			t.Fatalf("scalar batch %d = %v", i, b)
		}
	}
}

// TestBatchSizeConfig: BatchLanes narrows the fault-lane budget, 1
// disables batching, 0 and out-of-range values mean the backend maximum.
func TestBatchSizeConfig(t *testing.T) {
	for _, tc := range []struct{ lanes, want int }{
		{0, 63}, {1, 0}, {16, 15}, {64, 63}, {200, 63},
	} {
		cfg := awanCampaignConfig().Runner
		cfg.BatchLanes = tc.lanes
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.BatchSize(); got != tc.want {
			t.Errorf("BatchLanes=%d: BatchSize=%d, want %d", tc.lanes, got, tc.want)
		}
	}
	// Scalar backends have no batch capability at all.
	r, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.BatchSize(); got != 0 {
		t.Errorf("p6lite BatchSize=%d, want 0", got)
	}
}

// TestAwanLockstepLedger pins what a gate-level campaign clocks against what
// its faults needed, for the campaign the awan_lanes workload runs first
// (seed 1001, 840 flips, Width 64 x Lanes 16, 63 fault lanes a pass). All
// three counts are derived here, from the per-lane BatchResults and the
// pass's cycle count; the product keeps no counter for any of them.
//
//   - lockstep: machine cycles clocked, every pass walking the whole design
//     from its checkpoint until its last lane retires. This is the
//     campaign's cost (at one Eval each), and ROADMAP 3(c) — stepping only
//     the ALU cones that hold an armed lane, replaying a golden latch record
//     elsewhere — is the PR that may lower it. Compiling the program did
//     not: it made each of these cycles cheaper.
//   - armed: of those, cycles in which any lane was between its flip and its
//     verdict. The rest is the lockstep walk to each lane's flip cycle.
//   - needed: ALU-cycles in which an ALU held an armed lane's fault, out of
//     lockstep x 16 ALU-cycles evaluated. A fault perturbs one ALU of 16.
func TestAwanLockstepLedger(t *testing.T) {
	const alus, width = 16, 64
	rc := DefaultRunnerConfig()
	rc.Backend = "awan"
	rc.Awan = engine.AwanConfig{Width: width, Lanes: alus}
	r, err := NewRunner(rc)
	if err != nil {
		t.Fatal(err)
	}
	bb := r.Backend().(engine.BatchBackend)
	bits := SampleCampaignBits(r.DB(), 1001, 840, nil)

	var lockstep, armed, needed, injCycles, stepped uint64
	for _, batch := range planBatches(bits, r.Backend().Phases(), r.BatchSize()) {
		phase := -1
		injs := make([]engine.BatchInjection, len(batch))
		for i, pos := range batch {
			var delay int
			phase, delay = injectionSchedule(bits[pos], r.Backend().Phases())
			injs[i] = engine.BatchInjection{Inj: engine.Injection{Bit: bits[pos], Mode: engine.Toggle}, Delay: delay}
		}
		res, err := bb.RunBatch(phase, injs, rc.Window, rc.QuiesceExit)
		if err != nil {
			t.Fatal(err)
		}
		lockstep += uint64(r.Backend().(engine.BatchStatsReporter).LastBatchStats().Cycles)

		// anyLane[c] / inALU[a][c]: some lane was armed at absolute cycle c
		// (with its fault in ALU a).
		anyLane := map[uint64]bool{}
		var inALU [alus]map[uint64]bool
		for i, br := range res {
			alu := injs[i].Inj.Bit / (3*width + 2)
			if inALU[alu] == nil {
				inALU[alu] = map[uint64]bool{}
			}
			for c := br.InjectCycle; c < br.InjectCycle+br.Stats.Cycles; c++ {
				anyLane[c] = true
				inALU[alu][c] = true
			}
			injCycles += br.Stats.Cycles
			stepped += br.Stats.Stepped
		}
		armed += uint64(len(anyLane))
		for _, m := range inALU {
			needed += uint64(len(m))
		}
	}
	if stepped != injCycles {
		t.Errorf("lanes report %d stepped of %d observed cycles; nothing is replayed on this backend", stepped, injCycles)
	}
	if lockstep != 3101 || armed != 1269 || needed != 1633 {
		t.Errorf("lockstep %d armed %d needed %d of %d ALU-cycles, want 3101 / 1269 / 1633 of 49616",
			lockstep, armed, needed, lockstep*alus)
	}
}
