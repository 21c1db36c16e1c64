package stats

// Estimator counts a stream of classified campaign outcomes on one goroutine
// and evaluates a StopRule over the counts with the one evaluation a
// campaign report makes (Eval, AddStrata, AddSampleStrata): fed a report's
// results, its Snapshot is the report's ComputeConvergence. Campaigns stop on
// settled report counts, not on an Estimator. Class names are fixed at
// construction and indexed by outcome code; index 0 (and any other empty
// name) is padding for the invalid zero code, excluded from evaluation.
type Estimator struct {
	rule    StopRule
	classes []string
	all     row
	byUnit  map[string]*row
	byType  map[string]*row
	byCross map[string]*row // sample-plan stratum key ("unit/latch-class") -> row

	// pops maps sample-plan stratum key -> census population; non-nil once
	// TrackStrata armed stratified evaluation.
	pops map[string]int
}

// row is one population's sample total and its per-class counts, indexed by
// outcome code.
type row struct {
	total  int64
	counts []int64
}

// NewEstimator builds an estimator tracking the given classes (indexed by
// outcome code; empty names are padding) under rule.
func NewEstimator(classes []string, rule StopRule) *Estimator {
	return &Estimator{
		rule:    rule.normalized(),
		classes: classes,
		all:     row{counts: make([]int64, len(classes))},
		byUnit:  make(map[string]*row),
		byType:  make(map[string]*row),
		byCross: make(map[string]*row),
	}
}

// TrackStrata arms stratified evaluation: Snapshot evaluates every stratum
// of populations (key "unit/latch-class" -> census size), sampled or not,
// as a report's ComputeConvergence evaluates its Census, so exhausted
// strata are final and unsampled ones gate the verdict with zero counts.
func (e *Estimator) TrackStrata(populations map[string]int) {
	e.pops = populations
}

// ObserveStratum folds one classified injection: code is the outcome class
// index; unit, latchType and stratum (the sample's plan key) name the
// populations it belongs to, an empty name skipping that breakdown. An
// out-of-range code counts toward the totals only.
func (e *Estimator) ObserveStratum(code int, unit, latchType, stratum string) {
	e.all.observe(code)
	e.observe(e.byUnit, unit, code)
	e.observe(e.byType, latchType, code)
	e.observe(e.byCross, stratum, code)
}

func (e *Estimator) observe(rows map[string]*row, name string, code int) {
	if name == "" {
		return
	}
	r := rows[name]
	if r == nil {
		r = &row{counts: make([]int64, len(e.classes))}
		rows[name] = r
	}
	r.observe(code)
}

func (r *row) observe(code int) {
	r.total++
	if code >= 0 && code < len(r.counts) {
		r.counts[code]++
	}
}

// stratum returns the row's counts by class name; a nil row (a population
// not sampled yet) has none.
func (r *row) stratum(classes []string) StratumCounts {
	if r == nil {
		return StratumCounts{}
	}
	s := StratumCounts{Counts: make(map[string]int64, len(classes)), Total: r.total}
	for i, class := range classes {
		if class != "" {
			s.Counts[class] = r.counts[i]
		}
	}
	return s
}

// Snapshot evaluates the rule over the counts observed so far. strata adds
// the per-unit and per-type breakdowns; the sampling-stratum breakdown, over
// every stratum TrackStrata named, is always attached once it was armed.
func (e *Estimator) Snapshot(strata bool) *Convergence {
	all := e.all.stratum(e.classes)
	c := e.rule.Eval(e.classes, all.Counts, all.Total)
	if strata {
		c.AddStrata(e.rule, e.classes, e.strata(e.byUnit), e.strata(e.byType))
	}
	if e.pops != nil {
		cross := make(map[string]StratumCounts, len(e.pops))
		for key := range e.pops {
			cross[key] = e.byCross[key].stratum(e.classes)
		}
		c.AddSampleStrata(e.rule, e.classes, cross, e.pops)
	}
	return c
}

func (e *Estimator) strata(rows map[string]*row) map[string]StratumCounts {
	out := make(map[string]StratumCounts, len(rows))
	for name, r := range rows {
		out[name] = r.stratum(e.classes)
	}
	return out
}

// StrataStates returns the allocator's view of every sampling stratum in
// plan key order given each stratum's census population and drawn count.
// Strata the campaign has not sampled yet appear with zero counts. The
// returned states are fresh copies safe to retain (they are journaled by
// the distributed coordinator).
func (e *Estimator) StrataStates(keys []string, populations map[string]int, drawn map[string]int) []StratumState {
	out := make([]StratumState, 0, len(keys))
	for _, key := range keys {
		s := e.byCross[key].stratum(e.classes)
		out = append(out, StratumState{Key: key, Population: populations[key], Drawn: drawn[key], Total: s.Total, Counts: s.Counts})
	}
	return out
}
