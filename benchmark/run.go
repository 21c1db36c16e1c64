package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// maxSetupBuilds caps the cold set-ups of one run.
const maxSetupBuilds = 31

// runOptions select one run of one workload.
type runOptions struct {
	seed    uint64
	seconds float64 // length of the measured window
	trace   bool    // traced run: per-layer metrics in place of end-to-end ones
	sz      sizes
	outDir  string // result files, span files and the run's temp directory go here
}

// resultLine is the driver's result contract: the last line of standard
// output of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is the result file of one run: the result line plus what a
// reader needs to interpret it.
type runRecord struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Env      envBlock `json:"env"`
	resultLine
	OpsFailedFrac float64  `json:"ops_failed_frac"`
	Failures      []string `json:"failures,omitempty"`
	// Timings carry each timed quantity's median, tail percentile and
	// sample count; the gated metrics are the medians. The *_raw_s entries
	// are the same quantities as the clock read them, before scaling to
	// reference speed, and ref_burst_s is the reference kernel itself.
	Timings     map[string]timing  `json:"timings"`
	LayerSelfMs map[string]float64 `json:"layer_self_ms,omitempty"`
	Ops         []opResult         `json:"ops"`
}

// runWorkload performs one run: cold set-ups, a warm-up op, the measured
// window, verification, and (traced) the layer probes. All load comes from
// the calling goroutine: one op at a time, a reference burst after each.
func runWorkload(ctx context.Context, w workload, o runOptions) (*runRecord, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.outDir, "tmp-"+w.name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{ctx: ctx, seed: o.seed, sz: o.sz, tmp: tmp}

	// Set-up, cold, several times: the median is setup_s and the last
	// instance serves the run. A 10 ms set-up is repeated more often than a
	// 100 ms one, so that both medians rest on a comparable stretch of time.
	var inst instance
	var setups, rawSetups []float64
	ref := refBurst()
	began := time.Now()
	for b := 0; b < o.sz.setupBuilds || (b < maxSetupBuilds && time.Since(began).Seconds() < o.sz.setupSeconds); b++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if inst, err = w.open(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		raw := time.Since(t0).Seconds()
		next := refBurst()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, atRefSpeed(raw, ref, next))
		ref = next
	}
	defer inst.close()

	if warm := inst.op(-1, nil); warm.Err != "" {
		return nil, fmt.Errorf("%s: warm-up op: %s", w.name, warm.Err)
	}

	var rec *recorder
	window := o.seconds
	if o.trace {
		// Half the time runs ops, alternately untraced and traced; the
		// other half is left for the layer probes.
		rec = newRecorder()
		window /= 2
	}
	ops := runWindow(inst, window, w.minOps(o.sz), rec)
	rss := peakRSSMB()

	r := &runRecord{
		Workload: w.name, Why: w.why, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Env: readEnv(o.sz), Ops: ops, Timings: map[string]timing{},
	}
	r.Attempted = len(ops)
	failedOps := map[int]bool{}
	for _, op := range ops {
		if op.Err != "" {
			failedOps[op.Index] = true
			r.Failures = append(r.Failures, fmt.Sprintf("op %d: %s", op.Index, op.Err))
		}
	}
	extra := inst.verify(ops)
	layers := map[string]float64{}
	if o.trace {
		if err := inst.layers(ops, layers); err != nil {
			extra = append(extra, "layer probes: "+err.Error())
		}
		traceOverhead(ops, layers)
	}
	r.Failures = append(r.Failures, extra...)
	r.Failed = min(len(failedOps)+len(extra), r.Attempted)
	r.OpsFailedFrac = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.Failed == 0

	// Every timing below is per op and at reference speed; the metrics are
	// medians over the window's ops.
	var walls, rawWalls, rates, cpus, dupWalls, refs []float64
	for _, op := range ops {
		if op.Err != "" {
			continue
		}
		refs = append(refs, op.RefS)
		wall := op.atRefSpeed(op.WallS)
		if op.Kind == "dup" {
			dupWalls = append(dupWalls, wall)
			continue
		}
		walls = append(walls, wall)
		rawWalls = append(rawWalls, op.WallS)
		rates = append(rates, float64(op.Injections)/wall)
		cpus = append(cpus, 1000*op.atRefSpeed(op.CPUS)/float64(op.Injections))
	}
	r.Timings["report_wall_s"] = summarize(walls)
	r.Timings["report_wall_raw_s"] = summarize(rawWalls)
	r.Timings["inj_per_s"] = summarize(rates)
	r.Timings["setup_s"] = summarize(setups)
	r.Timings["setup_raw_s"] = summarize(rawSetups)
	r.Timings["ref_burst_s"] = summarize(refs)
	if len(dupWalls) > 0 {
		r.Timings["dedup_wall_s"] = summarize(dupWalls)
	}

	if !o.trace {
		measured := map[string]float64{}
		measured["inj_per_s"] = median(rates)
		measured["report_wall_s"] = median(walls)
		// What one closed-loop client completes per second when every op
		// costs its kind's median, at the window's mix of kinds.
		if n := float64(len(walls) + len(dupWalls)); n > 0 {
			perOp := (float64(len(walls))*median(walls) + float64(len(dupWalls))*median(dupWalls)) / n
			measured["ops_per_s"] = 1 / perOp
		}
		measured["cpu_ms_per_inj"] = median(cpus)
		measured["peak_rss_mb"] = rss
		measured["setup_s"] = median(setups)
		r.Metrics = fill(endToEnd, measured)
	} else {
		spans := rec.snapshot()
		r.LayerSelfMs = layerSelfMs(spans)
		r.Metrics = fill(perLayer, layers)
		if err := writeSpans(filepath.Join(o.outDir, "trace-"+w.name+".jsonl"), spans); err != nil {
			return nil, err
		}
	}

	name := w.name + ".json"
	if o.trace {
		name = w.name + "-layers.json"
	}
	if err := writeJSON(filepath.Join(o.outDir, name), r); err != nil {
		return nil, err
	}
	return r, nil
}

// runWindow runs ops 0, 1, 2, ... one after another until the window's
// time is up and at least minOps have run, with a reference burst between
// every two ops. With a recorder, odd ops are traced and even ops are not,
// so one window yields both sides of the tracing-overhead comparison.
func runWindow(inst instance, seconds float64, minOps int, rec *recorder) []opResult {
	var ops []opResult
	start := time.Now()
	ref := refBurst()
	for i := 0; i < minOps || time.Since(start).Seconds() < seconds; i++ {
		var opRec *recorder
		if i%2 == 1 {
			opRec = rec
		}
		began := time.Since(start).Seconds()
		cpu0 := cpuSeconds()
		res := inst.op(i, opRec)
		res.CPUS = cpuSeconds() - cpu0
		next := refBurst()
		res.StartS, res.Traced = began, opRec != nil
		res.RefS = (ref + next) / 2
		ref = next
		ops = append(ops, res)
	}
	return ops
}

// traceOverhead compares the window's traced ops with its untraced ones.
func traceOverhead(ops []opResult, out map[string]float64) {
	var on, off []float64
	for _, op := range ops {
		switch {
		case op.Err != "" || op.Kind != "fresh":
		case op.Traced:
			on = append(on, op.WallS)
		default:
			off = append(off, op.WallS)
		}
	}
	if len(on) > 0 && len(off) > 0 {
		out["bench.trace_overhead_frac"] = median(on)/median(off) - 1
	}
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is this process's resident-set high-water mark (Linux reports
// it in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
