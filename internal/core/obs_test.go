package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sfi/internal/engine"
	"sfi/internal/engine/p6lite"
	"sfi/internal/latch"
	"sfi/internal/obs"
	"sfi/internal/proc"
)

// TestCampaignTraceJSONL runs a multi-worker campaign with a trace sink and
// checks the stream is well-formed JSONL with exactly one event per
// injection, and that the per-outcome event counts equal the Report
// aggregates.
func TestCampaignTraceJSONL(t *testing.T) {
	var buf syncBuffer
	sink := obs.NewTraceSink(&buf, obs.TraceOptions{})
	cfg := fastCampaignConfig()
	cfg.Flips = 80
	cfg.Workers = 3
	cfg.Obs.Trace = sink
	cfg.Obs.Metrics = true
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if sink.Recorded() != int64(rep.Total) {
		t.Fatalf("recorded %d events, %d injections", sink.Recorded(), rep.Total)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != rep.Total {
		t.Fatalf("%d JSONL lines, want %d", len(lines), rep.Total)
	}
	byOutcome := make(map[string]int)
	seenBits := make(map[int]int)
	var stepped uint64
	for i, ln := range lines {
		var ev obs.TraceEvent
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if ev.Unit == "" || ev.Group == "" || ev.Outcome == "" || ev.LatchType == "" {
			t.Fatalf("line %d missing identity fields: %+v", i, ev)
		}
		if ev.TS == 0 {
			t.Fatalf("line %d missing timestamp", i)
		}
		if ev.Stepped > ev.Cycles {
			t.Fatalf("line %d: stepped %d of %d observed cycles", i, ev.Stepped, ev.Cycles)
		}
		stepped += ev.Stepped
		byOutcome[ev.Outcome]++
		seenBits[ev.Bit]++
	}
	// What a line says an injection was clocked is what the metrics folded.
	if stepped != rep.Metrics.SteppedCycles {
		t.Errorf("trace lines carry %d stepped cycles, metrics %d", stepped, rep.Metrics.SteppedCycles)
	}
	for _, o := range Outcomes {
		if byOutcome[o.String()] != rep.Counts[o] {
			t.Errorf("trace %s events = %d, report = %d",
				o, byOutcome[o.String()], rep.Counts[o])
		}
	}
	// Sampling without replacement: every event is a distinct bit.
	for bit, n := range seenBits {
		if n != 1 {
			t.Errorf("bit %d traced %d times", bit, n)
		}
	}
}

// TestCampaignMetricsMatchReport checks that the merged metrics snapshot
// agrees exactly with the Report aggregates, per outcome, unit and type.
func TestCampaignMetricsMatchReport(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 100
	cfg.Workers = 4
	cfg.Obs.Metrics = true
	cfg.Obs.Tracer = obs.NewTracer(cfg.Seed)
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.Metrics
	if snap == nil {
		t.Fatal("no metrics snapshot on report")
	}
	// Spans follow structure, never injections: campaign.run, sample, merge.
	if got := cfg.Obs.Tracer.Total(); got != 3 {
		t.Errorf("%d scalar injections recorded %d spans, want 3", rep.Total, got)
	}
	if snap.Injections != uint64(rep.Total) {
		t.Errorf("metrics injections %d, report total %d", snap.Injections, rep.Total)
	}
	for _, o := range Outcomes {
		if int(snap.Outcomes[o.String()]) != rep.Counts[o] {
			t.Errorf("outcome %s: metrics %d, report %d",
				o, snap.Outcomes[o.String()], rep.Counts[o])
		}
	}
	byUnit, byType := rep.Marginals()
	for unit, m := range byUnit {
		for o, n := range m {
			if int(snap.ByUnit[unit][o.String()]) != n {
				t.Errorf("unit %s outcome %s: metrics %d, report %d",
					unit, o, snap.ByUnit[unit][o.String()], n)
			}
		}
	}
	for ty, m := range byType {
		for o, n := range m {
			if int(snap.ByType[ty.String()][o.String()]) != n {
				t.Errorf("type %s outcome %s: metrics %d, report %d",
					ty, o, snap.ByType[ty.String()][o.String()], n)
			}
		}
	}
	// Every injection restores a checkpoint and runs a propagation window.
	if snap.Restores < uint64(rep.Total) {
		t.Errorf("restores %d < injections %d", snap.Restores, rep.Total)
	}
	if snap.PropagateCycles.Count != uint64(rep.Total) {
		t.Errorf("propagation windows %d, injections %d",
			snap.PropagateCycles.Count, rep.Total)
	}
	if snap.InjectionNs.Count != uint64(rep.Total) || snap.BusyNs == 0 {
		t.Errorf("injection latency count %d, busyNs %d",
			snap.InjectionNs.Count, snap.BusyNs)
	}
	// Detection latencies are recorded for exactly the detected results.
	detected := 0
	for _, res := range rep.Results {
		if res.Detected {
			detected++
		}
	}
	if int(snap.DetectCycles.Count) != detected {
		t.Errorf("detect histogram count %d, detected results %d",
			snap.DetectCycles.Count, detected)
	}
}

// TestEarlyExitCount pins the p6lite early exit against golden by counts,
// on fixed campaigns of the default configuration. The cycles observed are
// what they were when every one of them was stepped (the value of the commit
// before the early exit), so reports cannot have moved; the cycles the model
// was clocked through are at most 12% of them, which is the saving (a flip
// of a bit outside its group's read set clocks none, nor does one the
// fault-free run
// overwrites, or never reads, before the run ends, and the delay before any
// flip is no part of the count). The stepped totals are pinned for three
// fault shapes, so that a change to the replay rule shows where it moves
// each: a held fault is clocked on other grounds than a toggle. So is the
// number of times the clocked cores re-derived their scan view (a scan load,
// a flip or a restore since the last clocked cycle, on every core the
// campaign built), so that a change which moves the scan generation on
// cycles that write no scan state fails here and not only in the benchmark.
// So is the number of stepped cycles the clocked cores applied by arithmetic
// (proc.Core.Advance's counter-only stall runs), so that a change which
// takes the bulk path less, or never, fails here too. So is the number of
// phased-checkpoint restores the backends made (the clone's own included):
// one per injection while every ReloadPhase restored (501, 3001, 3001, 3001),
// now only for an injection that needs the model — a held fault confined to
// never-read bits does not (sticky-200 restored 3001 while it did) — so the
// restores an injection on the record skips show here.
// All are exact and repeat on any host.
func TestEarlyExitCount(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		flips                        int
		seed                         uint64
		mut                          func(*RunnerConfig)
		observed, stepped, refreshes uint64
		bulk, restores               uint64
	}{
		{"toggle-500", 500, 18, func(*RunnerConfig) {}, 348668, 26911, 69, 12854, 35},
		{"toggle", 3000, 7, func(*RunnerConfig) {}, 0, 171438, 397, 88082, 199},
		{"span-3", 3000, 7, func(r *RunnerConfig) { r.SpanBits = 3 }, 0, 181965, 409, 95177, 205},
		{"sticky-200", 3000, 7, func(r *RunnerConfig) { r.Mode, r.StickyCycles = engine.Sticky, 200 }, 0, 574653, 2027, 259438, 766},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultCampaignConfig()
			cfg.Flips, cfg.Seed = tc.flips, tc.seed
			cfg.Workers = 1
			cfg.Obs.Metrics = true
			tc.mut(&cfg.Runner)
			cores := &coreCounter{}
			cfg.Runner.Backend = cores.backend()
			rep, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := rep.Metrics
			if tc.observed != 0 && m.Cycles != tc.observed {
				t.Errorf("observed %d cycles, want %d: the observation windows moved", m.Cycles, tc.observed)
			}
			if m.SteppedCycles != tc.stepped {
				t.Errorf("stepped %d of %d observed cycles, want %d", m.SteppedCycles, m.Cycles, tc.stepped)
			}
			if tc.observed != 0 && m.SteppedCycles*100 > m.Cycles*12 {
				t.Errorf("stepped %d of %d observed cycles (%.1f%%), want at most 12%%",
					m.SteppedCycles, m.Cycles, 100*float64(m.SteppedCycles)/float64(m.Cycles))
			}
			if got := cores.refreshes(); got != tc.refreshes {
				t.Errorf("%d scan-view refreshes over %d stepped cycles, want %d", got, m.SteppedCycles, tc.refreshes)
			}
			if got := cores.bulk(); got != tc.bulk {
				t.Errorf("%d of %d stepped cycles advanced in bulk, want %d", got, m.SteppedCycles, tc.bulk)
			}
			if got := cores.restores(); got != tc.restores {
				t.Errorf("%d checkpoint restores over %d injections, want %d", got, rep.Total, tc.restores)
			}
		})
	}
}

// coreCounter registers a p6lite backend of its own and keeps every core it
// and its clones build, to count what they did.
type coreCounter struct {
	mu       sync.Mutex
	backends []*p6lite.Backend
	cores    []*proc.Core
	built    []uint64 // each core's BulkCycles when kept: its construction's
}

// backend registers the counting backend and returns its name.
func (cc *coreCounter) backend() string {
	name := fmt.Sprintf("p6lite-counted-%p", cc)
	engine.Register(name, func(cfg engine.Config) (engine.Backend, error) {
		cfg.Backend = p6lite.Name
		be, err := engine.New(cfg)
		if err != nil {
			return nil, err
		}
		return cc.keep(be.(*p6lite.Backend)), nil
	})
	return name
}

func (cc *coreCounter) keep(be *p6lite.Backend) engine.Backend {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.backends = append(cc.backends, be)
	cc.cores = append(cc.cores, be.Core())
	cc.built = append(cc.built, be.Core().BulkCycles())
	return countedBackend{be, cc}
}

// bulk sums the cycles the kept cores advanced in bulk since they were
// kept: the campaign's, not their construction's warm-up.
func (cc *coreCounter) bulk() (n uint64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for i, c := range cc.cores {
		n += c.BulkCycles() - cc.built[i]
	}
	return n
}

// restores sums the checkpoint restores of the kept backends.
func (cc *coreCounter) restores() (n uint64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, b := range cc.backends {
		n += b.Restores()
	}
	return n
}

// refreshes sums the scan-view refreshes of the kept cores.
func (cc *coreCounter) refreshes() (n uint64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, c := range cc.cores {
		n += c.ViewRefreshes()
	}
	return n
}

// countedBackend is a p6lite backend whose clones are kept too.
type countedBackend struct {
	*p6lite.Backend
	cc *coreCounter
}

func (b countedBackend) Clone() engine.Backend { return b.cc.keep(b.Backend.Clone().(*p6lite.Backend)) }

// TestCampaignElidesOnEveryWorker runs a campaign confined to the tracked
// latch groups (predictor, register files, ERAT, store queue) on four cloned
// workers, which share the prototype's access log and sparse checkpoint
// images read-only — the -race exercise for both. Whichever worker an
// injection lands on, it must clock exactly the cycles it clocks on a lone
// worker, most of them none: the merged ledgers are equal, cycle for cycle.
func TestCampaignElidesOnEveryWorker(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 400
	cfg.Seed = 25
	cfg.Filter = func(g *latch.Group) bool { return g.Tracked }
	cfg.Obs.Metrics = true
	cfg.Workers = 1
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	got, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) || got.Metrics.Cycles != want.Metrics.Cycles ||
		got.Metrics.SteppedCycles != want.Metrics.SteppedCycles {
		t.Errorf("four workers: %v, %d of %d cycles stepped; one worker: %v, %d of %d",
			got.Counts, got.Metrics.SteppedCycles, got.Metrics.Cycles, want.Counts, want.Metrics.SteppedCycles, want.Metrics.Cycles)
	}
	if want.Metrics.SteppedCycles == 0 || want.Metrics.SteppedCycles*4 > want.Metrics.Cycles {
		t.Errorf("stepped %d of %d observed cycles on the tracked groups, want some and under a quarter",
			want.Metrics.SteppedCycles, want.Metrics.Cycles)
	}
}

// TestCampaignProgressCallback reads a cloned multi-worker campaign's Live
// handle from another goroutine while it runs — the -race exercise for the
// progress path — and checks the views before, during and after the run.
func TestCampaignProgressCallback(t *testing.T) {
	for _, alloc := range allocModes {
		t.Run(alloc.Mode, func(t *testing.T) {
			cfg := fastCampaignConfig()
			cfg.Alloc = alloc
			cfg.Flips = 60
			cfg.Workers = 4
			cfg.Obs.Live = new(Live)
			if p := cfg.Obs.Live.Progress(); p.Done != 0 || p.Total != 0 || p.Metrics == nil {
				t.Errorf("before the run: %d/%d, metrics %v; want an empty view with a snapshot", p.Done, p.Total, p.Metrics)
			}
			stop, polled := make(chan struct{}), make(chan int)
			go func() {
				reads, last := 0, 0
				for {
					select {
					case <-stop:
						polled <- reads
						return
					default:
					}
					p := cfg.Obs.Live.Progress()
					reads++
					if p.Done < last {
						t.Errorf("progress went backwards: %d -> %d", last, p.Done)
					}
					if p.Done > p.Total {
						t.Errorf("done %d > total %d", p.Done, p.Total)
					}
					last = p.Done
				}
			}()
			rep, err := RunCampaign(cfg)
			close(stop)
			if reads := <-polled; reads == 0 {
				t.Error("the handle was never read")
			}
			if err != nil {
				t.Fatal(err)
			}
			last := cfg.Obs.Live.Progress()
			if last.Done != rep.Total || last.Total != rep.Total {
				t.Errorf("final progress %d/%d, want %d/%d", last.Done, last.Total, rep.Total, rep.Total)
			}
			if last.Workers != 4 || rep.Workers != 4 {
				t.Errorf("workers: progress %d, report %d, want 4", last.Workers, rep.Workers)
			}
			var mix uint64
			for _, n := range last.Outcomes {
				mix += n
			}
			if int(mix) != rep.Total {
				t.Errorf("final outcome mix sums to %d, want %d", mix, rep.Total)
			}
			if again := cfg.Obs.Live.Progress(); again.Elapsed != last.Elapsed {
				t.Errorf("elapsed moved after the run: %v then %v", last.Elapsed, again.Elapsed)
			}
			// A Live handle implies metrics: the report carries the snapshot.
			if rep.Metrics == nil {
				t.Error("progress-enabled campaign returned no metrics snapshot")
			}
		})
	}
}

// TestCampaignObservabilityOffByDefault: a default campaign must not
// allocate collectors or attach a snapshot.
func TestCampaignObservabilityOffByDefault(t *testing.T) {
	cfg := fastCampaignConfig()
	cfg.Flips = 10
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics != nil {
		t.Error("metrics snapshot present with observability off")
	}
}

// TestObservabilityAllocs pins "free when off, cheap when on" by counting
// allocations, not timing them: over a fixed pass of injections on a warm
// runner the bare path allocates nothing at all (the barrier callback is
// bound once, on the Runner), metrics allocate exactly as much, and the
// JSONL trace adds the event and its encoded line. The traced mean sits a
// fraction above two per injection (a FIR name list on the few that raise
// one; a line re-grown when its length lands on an allocator size class)
// and must stay under three.
func TestObservabilityAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops Puts under the race detector, so encoding/json allocates more")
	}
	r, err := NewRunner(fastRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	pass := func() {
		for i := 0; i < n; i++ {
			r.RunInjection((i * 7919) % r.DB().TotalBits())
		}
	}
	// AllocsPerRun counts the whole process, where a runtime goroutine adds
	// a stray now and then; its integer mean over five passes drops them.
	measure := func(m *obs.Metrics, sink *obs.TraceSink) float64 {
		r.Observe(m, sink, nil, obs.SpanContext{})
		return testing.AllocsPerRun(5, pass)
	}
	m, sink := obs.New(outcomeNames()), obs.NewTraceSink(io.Discard, obs.TraceOptions{})
	off, metrics, traced := measure(nil, nil), measure(m, nil), measure(m, sink)
	if m.Snapshot().Injections != 12*n || sink.Recorded() != 6*n {
		t.Fatalf("measured passes ran unobserved: %d injections counted, %d traced", m.Snapshot().Injections, sink.Recorded())
	}
	if off != 0 || metrics != off || traced >= off+3*n {
		t.Errorf("allocations per injection: %.2f off (want 0), %.2f with metrics (want equal), %.2f with metrics+trace (want < off+3)",
			off/n, metrics/n, traced/n)
	}
}

// TestCampaignTraceSampling: a sampling sink records every Nth injection.
func TestCampaignTraceSampling(t *testing.T) {
	var buf syncBuffer
	sink := obs.NewTraceSink(&buf, obs.TraceOptions{Sample: 4})
	cfg := fastCampaignConfig()
	cfg.Flips = 40
	cfg.Obs.Trace = sink
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Recorded() != 10 || sink.Dropped() != int64(rep.Total-10) {
		t.Errorf("sample=4 over %d: recorded %d, dropped %d",
			rep.Total, sink.Recorded(), sink.Dropped())
	}
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// syncBuffer is a mutex-guarded bytes.Buffer (the trace sink serializes
// writes, but String() may race with late writers in misuse scenarios; the
// guard keeps the tests -race clean regardless).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
