package main

import (
	"context"
	"fmt"
	"os"
	"time"

	gate "sfi/internal/awan"
	"sfi/internal/core"
	"sfi/internal/engine"
	"sfi/internal/engine/p6lite"
	"sfi/internal/server"
	"sfi/internal/stats"
	"sfi/internal/store"
)

// The layer probes time each module from outside, through its public API,
// on the configuration the workload runs. They run after the window, on
// one goroutine, so their numbers are uncontended service times; the
// window's own spans and counters show what contention adds.

// timeN calls f n times and returns the median duration in nanoseconds.
func timeN(n int, f func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ds)
}

// freshWalls returns the wall times of the window's untraced fresh ops,
// and their median injection count.
func freshWalls(ops []opResult) (walls []float64, injections float64) {
	var inj []float64
	for _, op := range ops {
		if op.Err == "" && op.Kind == "fresh" && !op.Traced {
			walls = append(walls, op.WallS)
			inj = append(inj, float64(op.Injections))
		}
	}
	return walls, median(inj)
}

// classify folds one hand-driven injection into an outcome exactly as
// core.Runner does, so the probe can check it re-drove the real protocol.
func classify(st engine.RunStats, v engine.Verdict, sdc bool) core.Outcome {
	switch {
	case v.Checkstop:
		return core.Checkstop
	case st.Hang || st.NoProgress:
		return core.Hang
	case sdc:
		return core.SDC
	case v.Recoveries > 0 || v.Corrected:
		return core.Corrected
	}
	return core.Vanished
}

// probeRunner measures the engine, latch, core and stats layers on a clone
// of proto, over the first bits of cfg's sample. workers and the ops are
// what core.parallel_efficiency compares the single-thread cost with.
func probeRunner(e *env, proto *core.Runner, cfg core.CampaignConfig, workers int, ops []opResult, out map[string]float64) error {
	rc := cfg.Runner
	r := proto.Clone()
	be := r.Backend()
	batched := r.BatchSize() > 1
	nbits := e.sz.probeBits
	if batched {
		nbits = awanProbeBits
	}
	// The probe wants nbits injections even when the workload's campaigns
	// are smaller (server_mixed); it never needs more than the population.
	bits := core.SampleCampaignBits(r.DB(), cfg.Seed, max(nbits, cfg.Flips), cfg.Filter)[:nbits]

	// The scalar protocol, phase by phase, then the same bit through
	// Runner.RunInjection.
	var restore, delayStep, inject, propagate, verdict, whole []float64
	var results []core.Result
	var cycles, barriers, delays, propNs float64
	for _, bit := range bits {
		phase, delay := schedule(bit, be.Phases())
		t0 := time.Now()
		be.ReloadPhase(phase)
		t1 := time.Now()
		for i := 0; i < delay; i++ {
			be.Step()
		}
		t2 := time.Now()
		if err := be.Inject(engine.Injection{Bit: bit, Mode: rc.Mode, Duration: rc.StickyCycles, Span: rc.SpanBits}); err != nil {
			return err
		}
		t3 := time.Now()
		sdc, clean := false, 0
		st := be.Run(rc.Window, func() bool {
			chk := be.CheckBarrier()
			if !chk.StateOK {
				sdc = true
				return false
			}
			if chk.Busy {
				clean = 0
				return true
			}
			clean++
			return rc.QuiesceExit == 0 || clean < rc.QuiesceExit
		})
		t4 := time.Now()
		v := be.Verdict()
		t5 := time.Now()

		res := r.RunInjection(bit)
		t6 := time.Now()
		if got := classify(st, v, sdc); got != res.Outcome || st.Cycles != res.Cycles {
			return fmt.Errorf("bit %d: hand-driven protocol says %v after %d cycles, RunInjection says %v after %d",
				bit, got, st.Cycles, res.Outcome, res.Cycles)
		}
		restore = append(restore, float64(t1.Sub(t0)))
		delayStep = append(delayStep, float64(t2.Sub(t1)))
		inject = append(inject, float64(t3.Sub(t2)))
		propagate = append(propagate, float64(t4.Sub(t3)))
		verdict = append(verdict, float64(t5.Sub(t4)))
		whole = append(whole, float64(t6.Sub(t5)))
		results = append(results, res)
		cycles += float64(res.Cycles)
		barriers += float64(res.TestEnds)
		delays += float64(delay)
		propNs += float64(t4.Sub(t3))
	}
	n := float64(len(bits))
	out["engine.restore_ns"] = median(restore)
	out["engine.delay_step_ns"] = median(delayStep)
	out["engine.inject_ns"] = median(inject)
	out["engine.propagate_ns"] = median(propagate)
	out["engine.verdict_ns"] = median(verdict)
	out["engine.sim_cycles_per_inj"] = cycles / n
	out["engine.barriers_per_inj"] = barriers / n
	out["engine.host_ns_per_sim_cycle"] = propNs / cycles
	out["core.run_injection_ns"] = median(whole)
	out["core.runner_overhead_ns"] = median(whole) - median(restore) - median(delayStep) -
		median(inject) - median(propagate) - median(verdict)

	// The fault-free model: one pass of the workload program, no harness.
	if pb, ok := be.(*p6lite.Backend); ok {
		c := pb.Core()
		var stepNs []float64
		for pass := 0; pass < 9; pass++ {
			be.ReloadPhase(0)
			cyc0, done0 := c.Cycle, c.Completed
			t0 := time.Now()
			for ends := 0; ends < be.Phases(); {
				if c.Step().TestEnd {
					ends++
				}
			}
			dt := time.Since(t0)
			stepNs = append(stepNs, float64(dt.Nanoseconds())/float64(c.Cycle-cyc0))
			out["proc.cpi"] = float64(c.Cycle-cyc0) / float64(c.Completed-done0)
		}
		be.ReloadPhase(0)
		out["proc.golden_step_ns"] = median(stepNs)
		// What an injection costs against the fault-free cost of the
		// cycles it simulated (delay included): 1.0 is the ZOFI ideal.
		out["engine.injection_vs_golden_ratio"] = mean(whole) / ((cycles + delays) / n * median(stepNs))
	}

	// One injection's dirtying, captured and restored as a sparse delta.
	if db := r.DB(); db.HasBaseline() {
		var capture, restoreDelta []float64
		for _, bit := range bits[:min(200, len(bits))] {
			r.RunInjection(bit)
			t0 := time.Now()
			d := db.CaptureDelta()
			t1 := time.Now()
			db.RestoreDelta(d)
			capture = append(capture, float64(t1.Sub(t0)))
			restoreDelta = append(restoreDelta, float64(time.Since(t1)))
		}
		out["latch.capture_delta_ns"] = median(capture)
		out["latch.restore_delta_ns"] = median(restoreDelta)
	}

	// Bit-parallel passes and the gate engine under them.
	walls, opInjections := freshWalls(ops)
	singleThreadNs := mean(whole) * opInjections
	if batched {
		plan := batchPlan(r, cfg)
		out["engine.lane_occupancy"] = float64(cfg.Flips) / float64(len(plan)*r.BatchSize())
		rep, _ := be.(engine.BatchStatsReporter)
		var pass, passRestore, passRun []float64
		for _, b := range plan[:min(awanBatchPasses, len(plan))] {
			t0 := time.Now()
			r.RunInjectionBatch(b)
			pass = append(pass, float64(time.Since(t0)))
			if rep != nil {
				st := rep.LastBatchStats()
				passRestore = append(passRestore, float64(st.RestoreNs))
				passRun = append(passRun, float64(st.RunNs))
			}
		}
		out["engine.batch_pass_ns"] = median(pass)
		out["engine.batch_restore_ns"] = median(passRestore)
		out["engine.batch_run_ns"] = median(passRun)
		singleThreadNs = mean(pass) * float64(len(plan))

		nl := gate.NewNetlist()
		for l := 0; l < rc.Awan.Lanes; l++ {
			nl.BuildCheckedALU(fmt.Sprintf("alu%d", l), rc.Awan.Width)
		}
		eng, err := gate.Compile(nl)
		if err != nil {
			return err
		}
		out["awan.step_ns"] = timeN(30, eng.Step)
		out["awan.eval_ns_per_gate"] = timeN(30, eng.Eval) / float64(nl.Gates())
	}
	if len(walls) > 0 {
		out["core.parallel_efficiency"] = singleThreadNs / 1e9 / (float64(workers) * median(walls))
	}

	// Set-up pieces.
	out["engine.build_ms"] = timeN(3, func() { core.NewRunner(rc) }) / 1e6 //nolint:errcheck // proto proves rc builds
	out["engine.clone_us"] = timeN(20, func() { proto.Clone() }) / 1e3

	// Sampling, planning, merging and rendering a campaign's report.
	out["core.sample_us"] = timeN(20, func() {
		core.SampleCampaignBits(r.DB(), cfg.Seed, cfg.Flips, cfg.Filter)
	}) / 1e3
	var plan *core.SamplePlan
	out["core.plan_build_ms"] = timeN(5, func() {
		plan = core.BuildSamplePlan(r.DB(), cfg.Seed, cfg.Filter)
	}) / 1e6
	shards, shardFlips := e.sz.mergeShards, 10
	if batched {
		shards, shardFlips = awanMergeShards, 2
	}
	parts, err := shardReports(e.ctx, r, cfg, shards, shardFlips)
	if err != nil {
		return err
	}
	var merged *core.Report
	out["core.merge_us"] = timeN(20, func() {
		merged = &core.Report{}
		for _, p := range parts {
			merged.Merge(p)
		}
	}) / 1e3
	out["core.report_json_us"] = timeN(20, func() { merged.MarshalJSON() }) / 1e3 //nolint:errcheck // timing only

	// The estimator and allocator over the workload's real strata.
	classes := make([]string, len(core.Outcomes)+1)
	for _, o := range core.Outcomes {
		classes[int(o)] = o.String()
	}
	rule := cfg.Stop.Rule()
	if !rule.Enabled() {
		rule = stats.StopRule{TargetMargin: 0.20, Strata: true}
	}
	est := stats.NewEstimator(classes, rule)
	pops := plan.Populations()
	est.TrackStrata(pops)
	drawn := make(map[string]int)
	t0 := time.Now()
	for _, res := range results {
		key := core.StratumKey(res.Unit, res.LatchType)
		est.ObserveStratum(int(res.Outcome), res.Unit, res.LatchType.String(), key)
		drawn[key]++
	}
	out["stats.observe_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	out["stats.snapshot_us"] = timeN(20, func() { est.Snapshot(true) }) / 1e3
	states := est.StrataStates(plan.Keys(), pops, drawn)
	out["stats.allocate_us"] = timeN(20, func() { rule.Allocate(classes, states, cfg.Flips) }) / 1e3
	return nil
}

// shardReports executes the first n size-flip shards of cfg as separate
// shard campaigns on proto, as a distributed worker would, for the merge
// probe.
func shardReports(ctx context.Context, proto *core.Runner, cfg core.CampaignConfig, n, size int) ([]*core.Report, error) {
	cfg.Workers = 1
	cfg.Alloc, cfg.Stop = core.AllocConfig{}, core.StopConfig{}
	cfg.Flips = max(cfg.Flips, n*size)
	var parts []*core.Report
	plan := core.PlanShards(cfg.Flips, size)
	for _, s := range plan[:min(n, len(plan))] {
		cfg.Shard = &s
		rep, err := core.RunCampaignWith(ctx, proto, cfg)
		if err != nil {
			return nil, err
		}
		parts = append(parts, rep)
	}
	return parts, nil
}

func (l *localInstance) layers(ops []opResult, out map[string]float64) error {
	cfg := l.campaign(0)
	if err := probeRunner(l.e, l.proto, cfg, cfg.Workers, ops, out); err != nil {
		return err
	}
	stopCounts(ops, cfg, out)
	return nil
}

// stopCounts reports how many injections and allocation epochs the
// window's campaigns took to reach their report. Both are pure functions
// of the campaign seeds.
func stopCounts(ops []opResult, cfg core.CampaignConfig, out map[string]float64) {
	var inj []float64
	for _, op := range ops {
		if op.Err == "" && op.Kind == "fresh" {
			inj = append(inj, float64(op.Injections))
		}
	}
	epochs := 1
	if cfg.Alloc.Stratified() {
		epochs = cfg.Alloc.Epochs
	}
	out["stats.injections_to_margin"] = mean(inj)
	out["stats.epochs_to_stop"] = mean(inj) / (float64(cfg.Flips) / float64(epochs))
}

func (d *distInstance) layers(ops []opResult, out map[string]float64) error {
	cfg := d.local.campaign(0)
	if err := probeRunner(d.e, d.local.proto, cfg, distWorkers, ops, out); err != nil {
		return err
	}
	stopCounts(ops, cfg, out)

	var lease, complete, shardRun, idle, perShard []float64
	requests, leases, empty, requeues := 0, 0, 0, 0
	for _, op := range ops {
		o := op.dist
		if o == nil || op.Err != "" {
			continue
		}
		lease = append(lease, o.leaseMs...)
		complete = append(complete, o.completeMs...)
		shardRun = append(shardRun, o.shardRunMs...)
		busy := 0.0
		for _, v := range o.shardRunMs {
			busy += v
		}
		idle = append(idle, 1-busy/1000/(distWorkers*op.WallS))
		perShard = append(perShard, float64(o.journalBytes)/float64(o.shards))
		requests += o.requests
		leases += o.leases
		empty += o.emptyLeases
		requeues += o.requeues
	}
	if len(idle) == 0 {
		return fmt.Errorf("no traced distributed op to read the control plane from")
	}
	out["dist.lease_rtt_ms"] = median(lease)
	out["dist.complete_rtt_ms"] = median(complete)
	out["dist.shard_run_ms"] = median(shardRun)
	out["dist.worker_idle_frac"] = median(idle)
	out["dist.journal_bytes_per_shard"] = median(perShard)
	out["dist.requests"] = float64(requests) / float64(len(idle))
	out["dist.empty_lease_frac"] = float64(empty) / float64(leases)
	out["dist.requeues"] = float64(requeues)

	// The same campaigns with and without a control plane, back to back so
	// that both sides see the same host: 1 - in-process wall / distributed.
	var with, without []float64
	for i := 0; i < 3; i++ {
		over, plain := d.op(i, nil), d.local.op(i, nil)
		if over.Err == "" && plain.Err == "" {
			with = append(with, over.WallS)
			without = append(without, plain.WallS)
		}
	}
	if len(with) > 0 {
		out["dist.control_overhead_frac"] = 1 - median(without)/median(with)
	}
	return nil
}

func (s *serverInstance) layers(ops []opResult, out map[string]float64) error {
	cfg := core.DefaultCampaignConfig()
	cfg.Runner = s.e.p6lite(engine.Toggle)
	cfg.Seed, cfg.Flips = s.e.opSeed(0), s.e.sz.serverFlips
	proto, err := core.NewRunner(cfg.Runner)
	if err != nil {
		return err
	}
	if err := probeRunner(s.e, proto, cfg, loadWorkers, ops, out); err != nil {
		return err
	}
	stopCounts(ops, cfg, out)

	var submit, queue, run, get, polls, bootHit, bootMiss, dedup, walls []float64
	var payload []byte
	var record server.Campaign
	hits, fresh := 0, 0
	for _, op := range ops {
		o := op.server
		if o == nil || op.Err != "" {
			continue
		}
		submit = append(submit, o.submitMs)
		get = append(get, o.reportGetMs)
		if op.Kind == "dup" {
			dedup = append(dedup, 1000*op.WallS)
			continue
		}
		fresh++
		walls = append(walls, 1000*op.WallS)
		polls = append(polls, float64(o.polls))
		payload, record = op.report, o.rec
		if c := o.rec; c.StartedAt != nil && c.FinishedAt != nil {
			queue = append(queue, ms(c.StartedAt.Sub(c.SubmittedAt)))
			run = append(run, ms(c.FinishedAt.Sub(*c.StartedAt)))
		}
		if o.rec.ImageHit {
			hits++
			bootHit = append(bootHit, o.rec.BootMs)
		} else {
			bootMiss = append(bootMiss, o.rec.BootMs)
		}
	}
	if fresh == 0 {
		return fmt.Errorf("no fresh server op to read the layers from")
	}
	out["server.submit_ms"] = median(submit)
	out["server.queue_wait_ms"] = median(queue)
	out["server.run_ms"] = median(run)
	out["server.report_get_ms"] = median(get)
	out["server.status_polls_per_op"] = mean(polls)
	out["server.boot_hit_ms"] = median(bootHit)
	out["server.boot_miss_ms"] = median(bootMiss)
	out["server.dedup_hit_ms"] = median(dedup)
	out["server.dedup_frac"] = float64(len(dedup)) / float64(len(dedup)+fresh)
	out["server.image_hit_frac"] = float64(hits) / float64(fresh)
	if t := summarize(walls); t.TailP > 0 {
		out["server.report_wall_tail_ms"] = t.Tail
	}
	return probeStore(s.e, cfg.Runner, payload, record, out)
}

// probeStore times the store's operations directly on a store of its own,
// with a real report document as the payload.
func probeStore(e *env, rc core.RunnerConfig, payload []byte, record server.Campaign, out map[string]float64) error {
	dir, err := os.MkdirTemp(e.tmp, "store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	// Content addressing makes a repeated put a no-op, so every put gets
	// its own bytes.
	seq := 0
	unique := func() []byte {
		seq++
		return append(append([]byte(nil), payload...), fmt.Sprintf("\n%d", seq)...)
	}
	var hashes []string
	var failed error
	keep := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	out["store.put_object_us"] = timeN(50, func() {
		h, err := st.PutObject(unique())
		keep(err)
		hashes = append(hashes, h)
	}) / 1e3
	next := 0
	out["store.get_object_us"] = timeN(50, func() {
		_, err := st.GetObject(hashes[next])
		keep(err)
		next++
	}) / 1e3
	out["store.put_report_us"] = timeN(50, func() {
		data := unique()
		_, err := st.PutReport(store.Digest(seq), data)
		keep(err)
	}) / 1e3
	out["store.save_campaign_us"] = timeN(50, func() {
		seq++
		keep(st.SaveCampaign(fmt.Sprintf("c%d", seq), record))
	}) / 1e3
	if failed != nil {
		return failed
	}
	cache := store.NewImageCache(0)
	if _, _, err := cache.Runner(rc); err != nil { // the miss builds the image
		return err
	}
	out["store.image_clone_us"] = timeN(20, func() { cache.Runner(rc) }) / 1e3 //nolint:errcheck // built above
	return nil
}
