package core

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"sfi/internal/obs"
	"sfi/internal/stats"
)

// Statistical and diagnostic views over a campaign Report: confidence
// intervals on the outcome proportions (the error bars behind the paper's
// Figure 2 argument), detection-latency statistics, and the per-checker
// coverage table designers use to evaluate their RAS hardware.

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

// Interval is a binomial confidence interval on an outcome proportion.
type Interval struct {
	Fraction float64
	Lo, Hi   float64
}

// ConfidenceIntervals returns the Wilson score interval for each outcome at
// confidence z (1.96 ≈ 95%).
func (r *Report) ConfidenceIntervals(z float64) map[Outcome]Interval {
	out := make(map[Outcome]Interval, len(Outcomes))
	for _, o := range Outcomes {
		lo, hi := stats.WilsonInterval(r.Counts[o], r.Total, z)
		out[o] = Interval{Fraction: r.Fraction(o), Lo: lo, Hi: hi}
	}
	return out
}

// PooledConvergence evaluates the rule over the report's Total and Counts
// alone, without breakdowns: the keyless stop decision, made over the
// settled prefix of a local campaign and over the sealed shards of a
// distributed one. Returns nil for a disabled rule.
func (r *Report) PooledConvergence(rule stats.StopRule) *stats.Convergence {
	pooled := Report{Total: r.Total, Counts: r.Counts}
	return pooled.ComputeConvergence(rule)
}

// ComputeConvergence evaluates an adaptive stopping rule over the report's
// exact aggregate counts, with per-unit and per-latch-type strata (the
// cross's Marginals). It is the evaluation a report carries, and the
// settled-counts basis every stop decision is made on. Returns nil for a
// disabled rule.
//
// Each stratum of the report's Census (a stratified draw's) is additionally
// evaluated over its cell of the cross against the rule (an exhausted
// stratum is converged whatever its widths), and — when the rule's Strata
// gate is armed — the stratum verdicts fold into the overall one. Strata the
// campaign never drew from still gate the verdict, with zero counts.
func (r *Report) ComputeConvergence(rule stats.StopRule) *stats.Convergence {
	if !rule.Enabled() {
		return nil
	}
	classes := outcomeNames()
	counts := make(map[string]int64, len(r.Counts))
	for o, n := range r.Counts {
		counts[o.String()] = int64(n)
	}
	c := rule.Eval(classes, counts, int64(r.Total))
	byUnit, byType := r.Marginals()
	units := make(map[string]stats.StratumCounts, len(byUnit))
	for unit, row := range byUnit {
		units[unit] = stratumFromRow(row)
	}
	types := make(map[string]stats.StratumCounts, len(byType))
	for t, row := range byType {
		types[t.String()] = stratumFromRow(row)
	}
	c.AddStrata(rule, classes, units, types)
	strata := make(map[string]stats.StratumCounts, len(r.Census))
	for key := range r.Census {
		strata[key] = stratumFromRow(r.ByStratum[key])
	}
	c.AddSampleStrata(rule, classes, strata, r.Census)
	return c
}

func stratumFromRow(row map[Outcome]int) stats.StratumCounts {
	s := stats.StratumCounts{Counts: make(map[string]int64, len(row))}
	for o, n := range row {
		s.Counts[o.String()] = int64(n)
		s.Total += int64(n)
	}
	return s
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
	cis := r.ConfidenceIntervals(1.96)
	for _, o := range Outcomes {
		ci := cis[o]
		fmt.Fprintf(&sb, "  %-10s %6d  %6.2f%%  [%.2f%%, %.2f%%]\n",
			o, r.Counts[o], 100*ci.Fraction, 100*ci.Lo, 100*ci.Hi)
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
