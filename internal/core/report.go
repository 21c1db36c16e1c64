package core

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"sfi/internal/obs"
	"sfi/internal/stats"
)

// Statistical and diagnostic views over a campaign Report: its estimate, the
// outcome proportions and their confidence intervals (the error bars behind
// the paper's Figure 2 argument), detection-latency statistics, and the
// per-checker coverage table designers use to evaluate their RAS hardware.

// Merge folds another report into r — the shard aggregation primitive for
// distributed campaigns. Merging the Reports of k disjoint shards of one
// campaign, in shard order, yields exactly the Report of a single-process
// run over the union: Total, Counts and the cross's cells add; kept Results
// concatenate (shard order = sample order, so the concatenation is the
// single-process Results slice); metrics snapshots merge; Workers reports
// the widest concurrency seen by any constituent; r adopts o's Census when
// it has none. o is not modified and may share no structure with r
// afterwards (rows are deep-merged).
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	r.Total += o.Total
	if r.Counts == nil {
		r.Counts = make(map[Outcome]int, len(o.Counts))
	}
	for oc, n := range o.Counts {
		r.Counts[oc] += n
	}
	if r.ByStratum == nil && len(o.ByStratum) > 0 {
		r.ByStratum = make(map[string]map[Outcome]int, len(o.ByStratum))
	}
	for k, row := range o.ByStratum {
		addRow(r.ByStratum, k, row)
	}
	if r.Census == nil {
		r.Census = maps.Clone(o.Census)
	}
	r.Results = append(r.Results, o.Results...)
	if o.Workers > r.Workers {
		r.Workers = o.Workers
	}
	if o.Metrics != nil {
		if r.Metrics == nil {
			r.Metrics = obs.NewSnapshot()
		}
		r.Metrics.Merge(o.Metrics)
	}
	// A merged report covers a different population than either input, so
	// any attached convergence evaluation is stale: drop it and let the
	// caller re-evaluate over the merged counts (ComputeConvergence).
	r.Convergence = nil
}

// Estimate is a report's numbers: per population, one row per outcome class
// in Outcomes order (Row picks one out). ByUnit and ByType are the cross's
// Marginals, ByStratum each stratum of the report's Census.
type Estimate = stats.Estimate

// Estimate is the one place a report's counts become numbers: every surface
// that prints a fraction or an interval reads it. In each population the
// estimate is the sample proportion K/N with the fixed-n Wilson score
// interval at z = 1.96.
func (r *Report) Estimate() *Estimate {
	return r.estimate(func(k, n int) (lo, hi float64) { return stats.WilsonInterval(k, n, 1.96) })
}

// estimate is the population builder: the report's design (its Census)
// decides which populations there are, and bound gives each row's interval.
// Estimate builds them under the fixed-n bound, ComputeConvergence under the
// stop rule's.
func (r *Report) estimate(bound func(k, n int) (lo, hi float64)) *Estimate {
	classes := outcomeNames()
	rows := func(s stats.StratumCounts) []stats.ClassInterval {
		return stats.ClassIntervals(classes, s.Counts, s.Total, bound)
	}
	pooled := stratumFromRow(r.Counts)
	pooled.Total = int64(r.Total)
	byUnit, byType := r.Marginals()
	e := &Estimate{
		Pooled: rows(pooled),
		ByUnit: make(map[string][]stats.ClassInterval, len(byUnit)),
		ByType: make(map[string][]stats.ClassInterval, len(byType)),
	}
	for unit, row := range byUnit {
		e.ByUnit[unit] = rows(stratumFromRow(row))
	}
	for t, row := range byType {
		e.ByType[t.String()] = rows(stratumFromRow(row))
	}
	if r.Census != nil {
		e.ByStratum = make(map[string][]stats.ClassInterval, len(r.Census))
		for key := range r.Census {
			e.ByStratum[key] = rows(stratumFromRow(r.ByStratum[key]))
		}
	}
	return e
}

// Row returns outcome o's row of one of an Estimate's populations.
func Row(rows []stats.ClassInterval, o Outcome) stats.ClassInterval { return rows[int(o)-1] }

// stratumFromRow is an outcome row as stats counts it: by class name, with
// the row's sum as its total.
func stratumFromRow(row map[Outcome]int) stats.StratumCounts {
	s := stats.StratumCounts{Counts: make(map[string]int64, len(row))}
	for o, n := range row {
		s.Counts[o.String()] = int64(n)
		s.Total += int64(n)
	}
	return s
}

// PooledConvergence evaluates the rule over the report's Total and Counts
// alone, without breakdowns: the keyless stop decision, which PrefixStop
// makes over each settled prefix of a uniform campaign's units (a local
// campaign's jobs, a distributed one's shards). Returns nil for a disabled
// rule.
func (r *Report) PooledConvergence(rule stats.StopRule) *stats.Convergence {
	pooled := Report{Total: r.Total, Counts: r.Counts}
	return pooled.ComputeConvergence(rule)
}

// PrefixStop is the keyless stop, the one copy both drivers run: the local
// executor feeds it jobs, a coordinator its keyless shards. Units settle in
// any order; PrefixStop folds them in unit (sample) order into pooled counts,
// evaluates the rule after each, and under StopOnConverge cuts the campaign
// at the smallest converged prefix. Converging at the last unit cuts
// nothing: the campaign is complete, not stopped.
type PrefixStop struct {
	stop      StopConfig
	evaluated func(*stats.Convergence) // each folded prefix's evaluation
	settled   []map[Outcome]int        // per unit, nil until it settles
	prefix    Report
	folded    int
	cut       int
}

// NewPrefixStop returns the rule over a campaign of units units.
func NewPrefixStop(units int, stop StopConfig, evaluated func(*stats.Convergence)) *PrefixStop {
	return &PrefixStop{stop: stop, evaluated: evaluated, settled: make([]map[Outcome]int, units),
		prefix: Report{Counts: make(map[Outcome]int)}, cut: units}
}

// Settle folds in unit n's outcome counts, with every unit it joins to the
// prefix, and returns the cut: how many units, from unit 0, the campaign
// keeps.
func (p *PrefixStop) Settle(n int, counts map[Outcome]int) int {
	p.settled[n] = counts
	for ; p.folded < p.cut && p.settled[p.folded] != nil; p.folded++ {
		for o, k := range p.settled[p.folded] {
			p.prefix.Total += k
			p.prefix.Counts[o] += k
		}
		c := p.prefix.PooledConvergence(p.stop.Rule())
		p.evaluated(c)
		if p.stop.StopOnConverge && c != nil && c.Converged {
			p.cut = p.folded + 1
		}
	}
	return p.cut
}

// Cut returns the cut Settle last returned.
func (p *PrefixStop) Cut() int { return p.cut }

// ComputeConvergence is the stop rule's judgement of the report's
// populations, built under the rule's Bound: the pooled sample, with
// per-unit and per-latch-type strata (the cross's Marginals). It is the
// evaluation a report carries, and the settled-counts basis every stop
// decision is made on. Returns nil for a disabled rule.
//
// Each stratum of the report's Census (a stratified draw's) is additionally
// judged against its census size (an exhausted stratum is converged
// whatever its widths), and — when the rule's Strata gate is armed — the
// stratum verdicts fold into the overall one. Strata the campaign never
// drew from still gate the verdict, with zero counts.
func (r *Report) ComputeConvergence(rule stats.StopRule) *stats.Convergence {
	if !rule.Enabled() {
		return nil
	}
	return rule.Judge(r.estimate(rule.Bound()), r.Census)
}

// LatencyStats summarizes detection latency over the detected injections.
type LatencyStats struct {
	Detected int
	Min, Max uint64
	Mean     float64
	P50, P95 uint64
}

// DetectionLatency computes statistics over the cycles-to-first-detection
// of all detected injections. It requires KeepResults.
func (r *Report) DetectionLatency() LatencyStats {
	var lats []uint64
	for _, res := range r.Results {
		if res.Detected {
			lats = append(lats, res.DetectLatency)
		}
	}
	st := LatencyStats{Detected: len(lats)}
	if len(lats) == 0 {
		return st
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	st.Min = lats[0]
	st.Max = lats[len(lats)-1]
	sum := 0.0
	for _, l := range lats {
		sum += float64(l)
	}
	st.Mean = sum / float64(len(lats))
	st.P50 = lats[len(lats)/2]
	st.P95 = lats[len(lats)*95/100]
	return st
}

// CheckerCoverage is one row of the coverage table: how often a checker was
// the first to observe an injected fault, and what the faults became.
type CheckerCoverage struct {
	Checker  string
	Detected int
	Outcomes map[Outcome]int
}

// CoverageTable aggregates first-detection counts per checker, sorted by
// detection count (descending). It requires KeepResults.
func (r *Report) CoverageTable() []CheckerCoverage {
	byChk := make(map[string]*CheckerCoverage)
	for _, res := range r.Results {
		if !res.Detected {
			continue
		}
		cc := byChk[res.FirstChecker]
		if cc == nil {
			cc = &CheckerCoverage{
				Checker:  res.FirstChecker,
				Outcomes: make(map[Outcome]int),
			}
			byChk[res.FirstChecker] = cc
		}
		cc.Detected++
		cc.Outcomes[res.Outcome]++
	}
	out := make([]CheckerCoverage, 0, len(byChk))
	for _, cc := range byChk {
		out = append(out, *cc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Detected != out[j].Detected {
			return out[i].Detected > out[j].Detected
		}
		return out[i].Checker < out[j].Checker
	})
	return out
}

// DetailedString renders the report with 95% confidence intervals,
// detection-latency statistics and the checker coverage table.
func (r *Report) DetailedString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total flips: %d\n", r.Total)
	for _, ci := range r.Estimate().Pooled {
		fmt.Fprintf(&sb, "  %-10s %6d  %6.2f%%  [%.2f%%, %.2f%%]\n",
			ci.Class, ci.K, 100*ci.Fraction, 100*ci.Lo, 100*ci.Hi)
	}
	if c := r.Convergence; c != nil {
		verdict := "converged"
		if !c.Converged {
			verdict = "NOT converged"
		}
		fmt.Fprintf(&sb, "convergence: %s at n=%d — widest margin %s %.2f%% "+
			"(target %.2f%% at %.0f%% confidence, min %d samples)\n",
			verdict, c.Total, c.WidestClass, 100*c.WidestWidth,
			100*c.TargetMargin, 100*c.Confidence, c.MinPerClass)
	}
	if len(r.Results) > 0 {
		ls := r.DetectionLatency()
		if ls.Detected > 0 {
			fmt.Fprintf(&sb, "detection latency over %d detected faults: "+
				"min %d, p50 %d, mean %.0f, p95 %d, max %d cycles\n",
				ls.Detected, ls.Min, ls.P50, ls.Mean, ls.P95, ls.Max)
		}
		cov := r.CoverageTable()
		if len(cov) > 0 {
			sb.WriteString("checker coverage (first detection):\n")
			for _, cc := range cov {
				fmt.Fprintf(&sb, "  %-16s %5d", cc.Checker, cc.Detected)
				for _, o := range Outcomes {
					if n := cc.Outcomes[o]; n > 0 {
						fmt.Fprintf(&sb, "  %s %d", o, n)
					}
				}
				sb.WriteByte('\n')
			}
		}
	}
	return sb.String()
}
