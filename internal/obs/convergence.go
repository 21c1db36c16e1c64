package obs

import (
	"fmt"
	"io"
	"sort"

	"sfi/internal/stats"
)

// Statistical-convergence views: any metrics snapshot (one worker, a merged
// campaign, or the fleet aggregator) already carries the per-class outcome
// counts a stats.StopRule needs, so the CI derivation is a pure function of
// the snapshot — the same code serves the live progress line, /metrics
// gauges, the distributed /v1/status convergence block, and JSONL trace
// events.

// Convergence evaluates rule over the snapshot's outcome counters. classes
// lists the tracked outcome classes in reporting order (empty names are
// code-index padding and skipped); the population size is the snapshot's
// injection count. strata adds per-unit and per-type breakdowns, each
// stratum evaluated as its own population. Nil-safe (returns nil).
func (s *Snapshot) Convergence(classes []string, rule stats.StopRule, strata bool) *stats.Convergence {
	if s == nil || !rule.Enabled() {
		return nil
	}
	c := rule.Eval(classes, toInt64Counts(s.Outcomes), int64(s.Injections))
	if strata {
		c.AddStrata(rule, classes, toStrata(s.ByUnit), toStrata(s.ByType))
	}
	return c
}

// Convergence evaluates rule over the fleet's current aggregate view —
// sealed (exact) completed-shard snapshots plus the newest heartbeat
// snapshots of in-flight shards. Nil-safe (returns nil).
func (f *Fleet) Convergence(classes []string, rule stats.StopRule, strata bool) *stats.Convergence {
	if f == nil {
		return nil
	}
	return f.Snapshot().Convergence(classes, rule, strata)
}

func toInt64Counts(m map[string]uint64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = int64(v)
	}
	return out
}

func toStrata(m map[string]map[string]uint64) map[string]stats.StratumCounts {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]stats.StratumCounts, len(m))
	for name, row := range m {
		s := stats.StratumCounts{Counts: toInt64Counts(row)}
		for _, v := range row {
			s.Total += int64(v)
		}
		out[name] = s
	}
	return out
}

// WriteConvergencePrometheus renders a convergence evaluation as Prometheus
// gauges under prefix: per-class interval bounds and widths
// (prefix_ci_lo/hi/width{class=...}), per-class and overall converged flags,
// and the rule's target margin. Nil c writes nothing. Output order is
// deterministic (classes keep their reporting order).
func WriteConvergencePrometheus(w io.Writer, prefix string, c *stats.Convergence) error {
	if c == nil {
		return nil
	}
	if prefix == "" {
		prefix = "sfi"
	}
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	gauge := func(name string, v float64) {
		p("# TYPE %s_%s gauge\n%s_%s %g\n", prefix, name, prefix, name, v)
	}
	gauge("ci_target_margin", c.TargetMargin)
	gauge("ci_confidence", c.Confidence)
	gauge("converged", boolGauge(c.Converged))
	gauge("ci_widest_width", c.WidestWidth)
	perClass := func(name string, value func(stats.ClassInterval) float64) {
		p("# TYPE %s_%s gauge\n", prefix, name)
		for _, ci := range c.Classes {
			p("%s_%s{class=%q} %g\n", prefix, name, ci.Class, value(ci))
		}
	}
	perClass("ci_lo", func(ci stats.ClassInterval) float64 { return ci.Lo })
	perClass("ci_hi", func(ci stats.ClassInterval) float64 { return ci.Hi })
	perClass("ci_width", func(ci stats.ClassInterval) float64 { return ci.Width })
	perClass("class_converged", func(ci stats.ClassInterval) float64 { return boolGauge(ci.Converged) })
	if len(c.ByStratum) > 0 {
		// Stratified campaigns: per-sampling-stratum sample counts and
		// widest class widths, plus the widest unconverged stratum. Absent
		// for uniform campaigns, whose scrape output is unchanged.
		gauge("stratum_widest_width", c.WidestStratumWidth)
		p("# TYPE %s_stratum_n gauge\n", prefix)
		for _, name := range sortedStratumNames(c.ByStratum) {
			n := int64(0)
			if cis := c.ByStratum[name]; len(cis) > 0 {
				n = cis[0].N
			}
			p("%s_stratum_n{stratum=%q} %d\n", prefix, name, n)
		}
		p("# TYPE %s_stratum_width gauge\n", prefix)
		for _, name := range sortedStratumNames(c.ByStratum) {
			widest := 0.0
			for _, ci := range c.ByStratum[name] {
				if ci.Width > widest {
					widest = ci.Width
				}
			}
			p("%s_stratum_width{stratum=%q} %g\n", prefix, name, widest)
		}
	}
	return err
}

func sortedStratumNames(m map[string][]stats.ClassInterval) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ConvergenceEvent is one statistical-convergence record in a JSONL trace:
// a class crossing its margin ("class_converged"), the campaign-wide stop
// decision ("stop"), or a distributed coordinator's sealed-counts decision
// ("fleet_stop"). The "convergence" key doubles as the event discriminator,
// like ShardEvent's "shard_event". Emit through TraceSink.RecordJSON.
type ConvergenceEvent struct {
	Kind         string  `json:"convergence"`
	Class        string  `json:"class,omitempty"`
	K            int64   `json:"k,omitempty"`
	N            int64   `json:"n"`
	Lo           float64 `json:"lo,omitempty"`
	Hi           float64 `json:"hi,omitempty"`
	Width        float64 `json:"width"`
	TargetMargin float64 `json:"target_margin"`
	Confidence   float64 `json:"confidence"`
}

// AllocationEvent is one allocation-epoch decision in a JSONL trace: how a
// stratified campaign split the epoch's budget across its sampling strata.
// The "allocation" key doubles as the event discriminator, like
// ConvergenceEvent's "convergence". Emitted by the local stratified
// executor and by the distributed coordinator at every epoch boundary
// (including the bootstrap epoch 0).
type AllocationEvent struct {
	Kind   string               `json:"allocation"`
	Epoch  int                  `json:"epoch"`
	Budget int                  `json:"budget"`
	Shares []stats.StratumShare `json:"shares"`
}
