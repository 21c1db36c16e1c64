package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"sfi/internal/engine"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// Expected values are what Python's statistics.quantiles(xs, n=4) prints.
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; !ok || got != tc.want {
			t.Errorf("quartiles(%v) = %v (ok=%v), want %v", tc.xs, got, ok, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not exist")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // 0 = no tail may be reported
	}{
		{8, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {180, 90}, {199, 90},
		{200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		pm := tailPermille(tc.n)
		if float64(pm)/10 != tc.want {
			t.Errorf("tailPermille(%d) = p%v, want p%v", tc.n, float64(pm)/10, tc.want)
		}
		if pm > 0 {
			xs := make([]float64, tc.n)
			for i := range xs {
				xs[i] = float64(i + 1)
			}
			if beyond := tc.n - int(percentile(xs, pm)); beyond < 10 {
				t.Errorf("n=%d: p%v leaves only %d samples beyond it", tc.n, float64(pm)/10, beyond)
			}
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if got := percentile(xs, 900); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if s := summarize(xs); s.Median != 50.5 || s.TailP != 90 || s.Tail != 90 || s.Samples != 100 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "b", Start: 20, End: 50},  // overlaps span 2: 20..30 counts once
		{ID: 4, Parent: 1, Layer: "a", Start: 90, End: 120}, // runs past its parent: clipped at 100
		{ID: 5, Parent: 3, Layer: "c", Start: 25, End: 45},  // a grandchild covers its parent only
		{ID: 6, Parent: 1, Layer: "b", Start: 22, End: 28},  // wholly inside covered time
	}
	want := map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byLayer := layerSelfMs(spans)
	if got := byLayer["a"]; math.Abs(got-50e-6) > 1e-12 {
		t.Errorf("layer a self time = %v ms, want 50 ns", got)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	h := off.begin(spanHandle{}, 0, "x", "y")
	h.end() // tracing off: nothing to record, nothing to crash on
	if off.snapshot() != nil {
		t.Error("a nil recorder recorded spans")
	}
	rec := newRecorder()
	root := rec.begin(spanHandle{}, 7, "op", "bench")
	child := rec.begin(root, 7, "call", "core")
	child.end()
	root.end()
	got := rec.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Op != 7 || got[0].End < got[1].End {
		t.Errorf("recorded spans %+v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v} }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"lower: same", lower, steady(100), steady(100), verdictOK},
		{"lower: 9% slower is inside the bound", lower, steady(100), steady(109), verdictOK},
		{"lower: 15% slower", lower, steady(100), steady(115), verdictWorse},
		{"lower: much faster", lower, steady(100), steady(50), verdictOK},
		{"higher: 15% less", higher, steady(100), steady(85), verdictWorse},
		{"higher: more", higher, steady(100), steady(130), verdictOK},
		{"noisy baseline hides a loss", lower, []float64{80, 100, 120, 140}, steady(130), verdictUnresolved},
		{"noisy candidate hides a win", lower, steady(100), []float64{60, 80, 100, 120}, verdictUnresolved},
		{"single runs have no spread", lower, []float64{100}, []float64{120}, verdictWorse},
	} {
		if _, _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	ratio, _, _ := verdict(lower, steady(100), steady(115))
	if math.Abs(ratio-1.15) > 1e-9 {
		t.Errorf("ratio = %v, want B/A = 1.15", ratio)
	}
}

func TestCompareSets(t *testing.T) {
	set := func(wall float64, failed int) *resultSet {
		s := &resultSet{}
		for seed := uint64(1); seed <= 3; seed++ {
			s.Runs = append(s.Runs,
				setRun{Workload: "p6lite_toggle", Seed: seed, resultLine: resultLine{
					Correct: failed == 0, Attempted: 10, Failed: failed,
					Metrics: map[string]metricValue{"report_wall_s": {Value: wall, Unit: "s"}},
				}},
				setRun{Workload: "p6lite_toggle", Seed: seed, Trace: true, resultLine: resultLine{
					Correct: true, Attempted: 5,
					Metrics: map[string]metricValue{"proc.cpi": {Value: 5.5, Unit: "ratio"}},
				}})
		}
		return s
	}
	var out bytes.Buffer
	if code := writeComparison(set(1.0, 0), set(1.05, 0), &out); code != 0 {
		t.Errorf("5%% slower inside a 10%% bound exits %d:\n%s", code, out.String())
	}
	for _, want := range []string{"p6lite_toggle", "report_wall_s", "1.0500", "B/A (base A)", "ok", "proc.cpi", "same"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := writeComparison(set(1.0, 0), set(1.3, 0), &out); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("30%% slower exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := writeComparison(set(1.0, 0), set(1.0, 1), &out); code != 1 {
		t.Errorf("a newly failing op exits %d:\n%s", code, out.String())
	}
}

func TestRefSpeed(t *testing.T) {
	// A host running at half speed doubles both the op and the bursts
	// around it, and the scaled time does not move.
	full := atRefSpeed(1.0, refNominalS, refNominalS)
	half := atRefSpeed(2.0, 2*refNominalS, 2*refNominalS)
	if full != 1.0 || math.Abs(half-full) > 1e-12 {
		t.Errorf("atRefSpeed: full speed %v, half speed %v, want 1 and 1", full, half)
	}
	op := opResult{WallS: 3, RefS: 1.5 * refNominalS}
	if got := op.atRefSpeed(op.WallS); math.Abs(got-2) > 1e-12 {
		t.Errorf("op at 2/3 speed: %v s at reference speed, want 2", got)
	}
	if d := refBurst(); d <= 0 {
		t.Errorf("refBurst took %v s", d)
	}
}

func TestDupPattern(t *testing.T) {
	s := &serverInstance{e: &env{seed: 9}}
	for i := 0; i < 400; i++ {
		if isDup(i) != (i%4 == 3) {
			t.Fatalf("op %d: isDup = %v", i, isDup(i))
		}
		if !isDup(i) {
			continue
		}
		if j := s.original(i); j < 0 || j >= i || isDup(j) {
			t.Fatalf("dup op %d re-submits op %d", i, j)
		}
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "x", "--seed", "3", "--seconds", "10", "--trace", "1"})
	want := []string{"--workload", "x", "--seed", "3", "--seconds", "10", "--trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("joinTraceValue = %v, want %v", got, want)
	}
	if got := joinTraceValue([]string{"-trace", "-seed", "1"}); !reflect.DeepEqual(got, []string{"-trace", "-seed", "1"}) {
		t.Errorf("a bare -trace was rewritten: %v", got)
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestManifestMatchesCode keeps BENCHMARK.json and the tables in this
// package naming the same workloads and metrics, within the driver's
// limits on names, units and counts.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(m.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", m.Command, m.Paths)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q breaks the naming rule", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName("workload", w.name)
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, code {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}

	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, code has %d", len(m.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		checkName("end-to-end metric", d.Name)
		if m.EndToEnd[i] != d {
			t.Errorf("end-to-end metric %d: manifest %+v, code %+v", i, m.EndToEnd[i], d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the driver's limits", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("manifest has %d per-layer metrics, code has %d (limit 128)", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName("per-layer metric", d.Name)
		if p := m.PerLayer[i]; p.Name != d.Name || p.Unit != d.Unit || p.Better != d.Better {
			t.Errorf("per-layer metric %d: manifest %+v, code %+v", i, p, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the driver's limits", d)
		}
	}
}

// smokeSizes are fullSizes at roughly a fiftieth: the same six workloads,
// the same code paths, small enough for every `go test ./...`.
func smokeSizes() sizes {
	return sizes{
		toggleFlips:  50,
		stickyFlips:  20,
		awanFlips:    48,
		awan:         engine.AwanConfig{Width: 8, Lanes: 4},
		distShard:    5,
		serverFlips:  8,
		neyman:       neymanSizes{budget: 2400, epochs: 6, margin: 0.45, minPerStratum: 50},
		avpTestcases: 4,
		avpBodyOps:   12,
		setupBuilds:  2,
		minOps:       2,
		serverMin:    8,
		probeBits:    40,
		mergeShards:  5,
	}
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, with
// verification on, so that a change to a core/dist/server signature or
// invariant that breaks the benchmark fails tier-1 and not the next
// measurement.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				rec, err := runWorkload(context.Background(), w, runOptions{
					seed: 3, seconds: 0, trace: traced, sz: smokeSizes(), outDir: out,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 2 {
					t.Errorf("attempted %d, failed %d: %v", rec.Attempted, rec.Failed, rec.Failures)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(rec.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d defined", len(rec.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rec.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: %+v (reported=%v)", d.Name, m, ok)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
					}
				}
				files := []string{w.name + ".json"}
				if traced {
					files = []string{w.name + "-layers.json", "trace-" + w.name + ".jsonl"}
				}
				for _, f := range files {
					if fi, err := os.Stat(filepath.Join(out, f)); err != nil || fi.Size() == 0 {
						t.Errorf("result file %s: %v", f, err)
					}
				}
				if left, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(left) != 0 {
					t.Errorf("temporary directories left behind: %v", left)
				}
			})
		}
	}
}
