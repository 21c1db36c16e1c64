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

// Convergence is a StopRule's judgement of an Estimate (Judge): the tracked
// classes' rows, the overall verdict, and the widest outstanding margin
// (what the progress line shows). JSON field names are API surface — see
// ClassInterval.
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

// Estimate is a sample's numbers. For each population it holds one row per
// outcome class, in class order: the class's count K out of the
// population's N, the point estimate Fraction and an interval [Lo, Hi], all
// rows built by ClassIntervals under one bound — the fixed-n Wilson interval
// at 95% in a campaign report's estimate (core.Report.Estimate), a StopRule's
// Bound when the rule judges it.
type Estimate struct {
	// Pooled is the whole sample.
	Pooled []ClassInterval
	// ByUnit and ByType are keyed by unit and latch-type name.
	ByUnit, ByType map[string][]ClassInterval
	// ByStratum is each sampling stratum of a stratified design, those the
	// draw never reached included with zero counts; nil for a uniform draw.
	ByStratum map[string][]ClassInterval
}

// StratumCounts is one stratum's per-class counts and sample total.
type StratumCounts struct {
	Counts map[string]int64
	Total  int64
}

// Bound is the interval the rule judges a population's rows by: the
// sequential Wilson interval at the rule's Confidence. An Estimate the rule
// judges is built under it.
func (r StopRule) Bound() func(k, n int) (lo, hi float64) {
	confidence := r.normalized().Confidence
	return func(k, n int) (lo, hi float64) { return SequentialWilson(k, n, confidence) }
}

// Eval judges one population of per-class counts, with no breakdowns.
func (r StopRule) Eval(classes []string, counts map[string]int64, total int64) *Convergence {
	return r.Judge(&Estimate{Pooled: ClassIntervals(classes, counts, total, r.Bound())}, nil)
}

// Judge is the rule's verdict on an estimate built under its Bound. A row
// has converged once its population has met the MinPerClass floor and its
// width is within TargetMargin, and the estimate once every pooled row has;
// the per-unit and per-type rows are informational. Each sampling stratum
// is judged by StratumConverged, populations giving its census size: the
// widest unconverged one is named for the progress line and, when the
// rule's Strata gate is armed, holds the verdict back. Judge marks the
// estimate's rows, and the Convergence holds them.
func (r StopRule) Judge(e *Estimate, populations map[string]int) *Convergence {
	r = r.normalized()
	c := &Convergence{
		Confidence:   r.Confidence,
		TargetMargin: r.TargetMargin,
		MinPerClass:  r.MinPerClass,
		Total:        total(e.Pooled),
		Converged:    r.mark(e.Pooled),
		Classes:      e.Pooled,
		ByUnit:       orNil(e.ByUnit),
		ByType:       orNil(e.ByType),
		ByStratum:    orNil(e.ByStratum),
	}
	for _, pop := range []map[string][]ClassInterval{e.ByUnit, e.ByType, e.ByStratum} {
		for _, rows := range pop {
			r.mark(rows)
		}
	}
	for _, ci := range c.Classes {
		if ci.Width > c.WidestWidth {
			c.WidestWidth = ci.Width
			c.WidestClass = ci.Class
		}
	}
	names := make([]string, 0, len(e.ByStratum))
	for name := range e.ByStratum {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := e.ByStratum[name]
		if r.StratumConverged(rows, populations[name]) {
			continue
		}
		if r.Strata {
			c.Converged = false
		}
		for _, ci := range rows {
			if ci.Width > c.WidestStratumWidth {
				c.WidestStratumWidth = ci.Width
				c.WidestStratum = name
			}
		}
	}
	return c
}

// StratumConverged judges one sampling stratum's rows, built under the
// rule's Bound: converged once it is exhausted (its N has reached its census
// population — a census has no sampling error, whatever its interval
// widths) or once every row has met the MinPerClass floor with its width
// within TargetMargin. A stratum whose population is below the floor is
// reachable only by exhaustion.
func (r StopRule) StratumConverged(rows []ClassInterval, population int) bool {
	r = r.normalized()
	if population > 0 && total(rows) >= int64(population) {
		return true
	}
	for _, ci := range rows {
		if !r.met(ci) {
			return false
		}
	}
	return true
}

// met reports whether one row meets the normalized rule: its population has
// met the MinPerClass floor and its width is within TargetMargin.
func (r StopRule) met(ci ClassInterval) bool {
	return ci.N >= int64(r.MinPerClass) && ci.Width <= r.TargetMargin
}

// mark sets each row's Converged by the normalized rule and reports whether
// every row has converged.
func (r StopRule) mark(rows []ClassInterval) bool {
	all := true
	for i := range rows {
		rows[i].Converged = r.met(rows[i])
		all = all && rows[i].Converged
	}
	return all
}

// orNil is pops, or nil when it holds no population: a Convergence is the
// same value before and after a JSON round trip (the journal's stop record).
func orNil(pops map[string][]ClassInterval) map[string][]ClassInterval {
	if len(pops) == 0 {
		return nil
	}
	return pops
}

// total is the sample total a population's rows were built over.
func total(rows []ClassInterval) int64 {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].N
}
