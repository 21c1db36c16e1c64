package stats

import (
	"math"
	"sort"
)

// This file is the statistical core of adaptive campaigns: sequential
// Wilson intervals and the stopping rule that decides when a campaign has
// answered its question. The paper's argument is that fault injection is a
// statistical estimation problem — run *just enough* samples for a requested
// margin of error at a requested confidence — and a streaming campaign that
// peeks at its intervals after every sample needs sequential bounds, not the
// fixed-n Wilson interval, or the repeated looks inflate the false-stop rate.

// DefaultConfidence is the two-sided confidence level used when a StopRule
// leaves Confidence unset.
const DefaultConfidence = 0.95

// DefaultMinPerClass is the minimum-samples floor used when a StopRule
// leaves MinPerClass unset: a population's intervals are not eligible to
// converge before it has seen this many samples, so rare classes (SDC,
// checkstop) are never declared converged at n≈0.
const DefaultMinPerClass = 50

// ZForConfidence converts a two-sided confidence level in (0, 1) to the
// standard-normal critical value (0.95 → ≈1.96).
func ZForConfidence(confidence float64) float64 {
	return math.Sqrt2 * math.Erfinv(confidence)
}

// SequentialZ is the critical value for a Wilson interval inspected at
// sample size n. The look at n is charged α_n = α/((e+1)(e+2)) of the error
// budget α = 1-confidence, with e = log₂(n). Those charges telescope to at
// most α over the looks at n = 2^k only (TestSequentialZDoublingBudget), so
// the intervals hold simultaneously at the doubling sizes. A campaign looks
// at many more n than those: summed over every n ≤ 20,000 the charges come
// to 5.13 at α = 0.05, and a stop at the first n whose width meets the
// target has no proven false-stop rate. ROADMAP item 14(b) replaces this
// with a bound that holds at every n. The continuous e (rather than
// ⌊log₂ n⌋ epoch stitching) makes the interval width strictly shrink with
// n, which the monotone-shrink test locks in.
func SequentialZ(confidence float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	alpha := 1 - confidence
	e := math.Log2(float64(n))
	an := alpha / ((e + 1) * (e + 2))
	return ZForConfidence(1 - an)
}

// SequentialWilson returns the sequential Wilson interval for k successes
// out of n samples at the given confidence: WilsonInterval evaluated at the
// inflated SequentialZ critical value (see there for what it guarantees).
// For n == 0 it is the vacuous (0, 1).
func SequentialWilson(k, n int, confidence float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	return WilsonInterval(k, n, SequentialZ(confidence, n))
}

// StopRule is an adaptive campaign's stopping rule: stop once every tracked
// outcome class's sequential Wilson interval is narrower than TargetMargin
// at the Confidence level. The zero value is disabled (TargetMargin 0).
type StopRule struct {
	// TargetMargin is the maximum acceptable interval width (hi-lo) per
	// class, as a fraction (0.02 = ±1 percentage point). <= 0 disables the
	// rule.
	TargetMargin float64 `json:"target_margin,omitempty"`

	// Confidence is the two-sided confidence level the margin must hold at
	// (default DefaultConfidence).
	Confidence float64 `json:"confidence,omitempty"`

	// MinPerClass is the minimum number of samples a population (the whole
	// campaign, or a per-unit/per-type stratum) must have seen before its
	// intervals may converge (default DefaultMinPerClass).
	MinPerClass int `json:"min_per_class,omitempty"`

	// Strata makes the per-stratum margins a stoppable target: a campaign
	// running a stratified sample plan has converged only when every
	// sampling stratum is itself converged or exhausted (StratumConverged),
	// not just the global classes. Armed automatically by stratified
	// allocation; zero (off) for uniform campaigns, so their wire formats
	// and journal headers are unchanged.
	Strata bool `json:"strata,omitempty"`
}

// Enabled reports whether the rule is active.
func (r StopRule) Enabled() bool { return r.TargetMargin > 0 }

// normalized fills in defaults so every consumer evaluates the same rule.
func (r StopRule) normalized() StopRule {
	if r.Confidence <= 0 || r.Confidence >= 1 {
		r.Confidence = DefaultConfidence
	}
	if r.MinPerClass <= 0 {
		r.MinPerClass = DefaultMinPerClass
	}
	return r
}

// ClassInterval is one outcome class's row of a population: its count K
// out of the population's N, the fraction K/N and an interval on it — the
// sequential Wilson interval in a Convergence, the fixed-n one in a
// campaign report's estimate (core.Report.Estimate). The JSON field names
// are API surface (the /v1/status convergence block and JSONL convergence
// events) — locked by a golden test; change them only with a wire-version
// bump.
type ClassInterval struct {
	Class     string  `json:"class"`
	K         int64   `json:"k"`
	N         int64   `json:"n"`
	Fraction  float64 `json:"fraction"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	Width     float64 `json:"width"`
	Converged bool    `json:"converged"`
}

// Convergence is a point-in-time evaluation of a StopRule over a campaign's
// per-class counts: the tracked classes' intervals, the overall verdict,
// and the widest outstanding margin (what the progress line shows). JSON
// field names are API surface — see ClassInterval.
type Convergence struct {
	Confidence   float64         `json:"confidence"`
	TargetMargin float64         `json:"target_margin"`
	MinPerClass  int             `json:"min_per_class"`
	Total        int64           `json:"total"`
	Converged    bool            `json:"converged"`
	WidestClass  string          `json:"widest_class"`
	WidestWidth  float64         `json:"widest_width"`
	Classes      []ClassInterval `json:"classes"`

	// Optional per-stratum breakdowns (per unit, per latch class). Each
	// stratum is evaluated as its own population: its n is the stratum's
	// sample count and the MinPerClass floor applies per stratum.
	ByUnit map[string][]ClassInterval `json:"by_unit,omitempty"`
	ByType map[string][]ClassInterval `json:"by_type,omitempty"`

	// ByStratum breaks the campaign down by sampling stratum (the unit ×
	// latch-class crosses a stratified sample plan draws from), and
	// WidestStratum/WidestStratumWidth name the widest still-unconverged
	// stratum — what a stratified progress line shows. All empty for
	// uniform campaigns, keeping their JSON byte-identical.
	ByStratum          map[string][]ClassInterval `json:"by_stratum,omitempty"`
	WidestStratum      string                     `json:"widest_stratum,omitempty"`
	WidestStratumWidth float64                    `json:"widest_stratum_width,omitempty"`
}

// ClassIntervals evaluates one population: for each class name (in order,
// empty names skipped — they are code-index padding), the row of
// counts[class] out of total, its interval the one bound gives for k out of
// n. Converged is left false.
func ClassIntervals(classes []string, counts map[string]int64, total int64, bound func(k, n int) (lo, hi float64)) []ClassInterval {
	out := make([]ClassInterval, 0, len(classes))
	for _, class := range classes {
		if class == "" {
			continue
		}
		k := counts[class]
		ci := ClassInterval{Class: class, K: k, N: total}
		ci.Lo, ci.Hi = bound(int(k), int(total))
		ci.Width = ci.Hi - ci.Lo
		if total > 0 {
			ci.Fraction = float64(k) / float64(total)
		}
		out = append(out, ci)
	}
	return out
}

// CountsOf returns the per-class counts and the total a population's rows
// were evaluated over.
func CountsOf(rows []ClassInterval) StratumCounts {
	s := StratumCounts{Counts: make(map[string]int64, len(rows))}
	for _, ci := range rows {
		s.Counts[ci.Class], s.Total = ci.K, ci.N
	}
	return s
}

// Intervals evaluates one population: for each class name (in order, empty
// names skipped — they are code-index padding), the sequential Wilson
// interval of counts[class] out of total, converged when the population has
// met the MinPerClass floor and the width is within TargetMargin.
func (r StopRule) Intervals(classes []string, counts map[string]int64, total int64) []ClassInterval {
	r = r.normalized()
	out := ClassIntervals(classes, counts, total, func(k, n int) (lo, hi float64) {
		return SequentialWilson(k, n, r.Confidence)
	})
	for i := range out {
		out[i].Converged = total >= int64(r.MinPerClass) && out[i].Width <= r.TargetMargin
	}
	return out
}

// Eval evaluates the rule over a campaign's per-class counts: the campaign
// has converged when every tracked class's interval has. Strata, when
// non-nil, adds per-unit and per-type breakdowns (informational — they do
// not gate the verdict; allocate more samples there if their margins
// matter).
func (r StopRule) Eval(classes []string, counts map[string]int64, total int64) *Convergence {
	r = r.normalized()
	c := &Convergence{
		Confidence:   r.Confidence,
		TargetMargin: r.TargetMargin,
		MinPerClass:  r.MinPerClass,
		Total:        total,
		Converged:    true,
		Classes:      r.Intervals(classes, counts, total),
	}
	for _, ci := range c.Classes {
		if !ci.Converged {
			c.Converged = false
		}
		if ci.Width > c.WidestWidth {
			c.WidestWidth = ci.Width
			c.WidestClass = ci.Class
		}
	}
	return c
}

// AddStrata attaches per-stratum breakdowns, each stratum evaluated as its
// own population via Intervals. The maps are keyed by stratum name; values
// are per-class counts and the stratum's sample total.
func (c *Convergence) AddStrata(r StopRule, classes []string, byUnit, byType map[string]StratumCounts) {
	c.ByUnit = strataIntervals(r, classes, byUnit)
	c.ByType = strataIntervals(r, classes, byType)
}

// StratumConverged evaluates one sampling stratum as its own population:
// converged once it is exhausted (Total ≥ population — a census has no
// sampling error, whatever its interval widths) or once it has met the
// MinPerClass floor (capped at the stratum's population, so tiny strata
// are not unreachable) with every class interval within TargetMargin.
func (r StopRule) StratumConverged(classes []string, s StratumCounts, population int) bool {
	r = r.normalized()
	if population > 0 && s.Total >= int64(population) {
		return true
	}
	floor := int64(r.MinPerClass)
	if population > 0 && int64(population) < floor {
		floor = int64(population)
	}
	if s.Total < floor {
		return false
	}
	for _, class := range classes {
		if class == "" {
			continue
		}
		lo, hi := SequentialWilson(int(s.Counts[class]), int(s.Total), r.Confidence)
		if hi-lo > r.TargetMargin {
			return false
		}
	}
	return true
}

// AddSampleStrata attaches the sampling-stratum breakdown of a stratified
// campaign: per-stratum intervals under ByStratum, the widest unconverged
// stratum for the progress line, and — when the rule's Strata gate is
// armed — each stratum's verdict folded into Converged. populations maps
// stratum key → census size so exhausted strata count as converged.
func (c *Convergence) AddSampleStrata(r StopRule, classes []string, strata map[string]StratumCounts, populations map[string]int) {
	if len(strata) == 0 {
		return
	}
	r = r.normalized()
	c.ByStratum = strataIntervals(r, classes, strata)
	names := make([]string, 0, len(strata))
	for name := range strata {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if r.StratumConverged(classes, strata[name], populations[name]) {
			continue
		}
		if r.Strata {
			c.Converged = false
		}
		widest := 0.0
		for _, ci := range c.ByStratum[name] {
			if ci.Width > widest {
				widest = ci.Width
			}
		}
		if widest > c.WidestStratumWidth {
			c.WidestStratumWidth = widest
			c.WidestStratum = name
		}
	}
}

// StratumCounts is one stratum's per-class counts and sample total.
type StratumCounts struct {
	Counts map[string]int64
	Total  int64
}

func strataIntervals(r StopRule, classes []string, strata map[string]StratumCounts) map[string][]ClassInterval {
	if len(strata) == 0 {
		return nil
	}
	out := make(map[string][]ClassInterval, len(strata))
	names := make([]string, 0, len(strata))
	for name := range strata {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := strata[name]
		out[name] = r.Intervals(classes, s.Counts, s.Total)
	}
	return out
}
