package stats

import (
	"math"
	"sort"
)

// This file is the budget side of stratified campaigns: Neyman allocation
// of the next epoch's injections across sampling strata. The paper's
// stratified refinement of uniform sampling assigns each stratum a share
// proportional to N_s·S_s — population times estimated standard deviation —
// so budget flows to the strata whose intervals are still wide while strata
// that have converged (or been exhausted outright) stop drawing samples.

// StratumState is the allocator's view of one sampling stratum at an epoch
// boundary: its census size, how many samples have been drawn (planned)
// from it so far, and the settled per-class outcome counts.
type StratumState struct {
	Key        string
	Population int
	Drawn      int
	Total      int64
	Counts     map[string]int64
}

// StratumShare is one stratum's slice of an allocation epoch. The JSON
// names ride the coordinator journal (re-allocation records) and the
// /v1/status allocation block, so they are API surface.
type StratumShare struct {
	Stratum string `json:"stratum"`
	// Next is the number of injections allocated to the stratum this epoch.
	Next int `json:"next"`
	// Score is the stratum's unnormalized Neyman weight N_s·S_s (0 for
	// converged or exhausted strata).
	Score float64 `json:"score,omitempty"`
}

// NeymanScore is a stratum's allocation weight N_s·S_s: population times
// the largest per-class binomial standard deviation sqrt(p̃(1-p̃)), with
// Laplace-smoothed p̃ = (k+1)/(n+2) so an unsampled stratum scores at the
// maximal S_s = 0.5 and the first epoch bootstraps proportional to
// population.
func NeymanScore(classes []string, s StratumState) float64 {
	sd := 0.0
	for _, class := range classes {
		if class == "" {
			continue
		}
		p := (float64(s.Counts[class]) + 1) / (float64(s.Total) + 2)
		if v := math.Sqrt(p * (1 - p)); v > sd {
			sd = v
		}
	}
	return float64(s.Population) * sd
}

// Allocate splits an epoch's injection budget across strata by Neyman
// allocation: each unconverged stratum draws budget·w_s/Σw with
// w_s = NeymanScore, rounded by largest remainder, capped at the stratum's
// remaining capacity (population minus already-drawn). Converged strata
// (per StratumConverged, including exhausted ones) score zero; if every
// stratum has converged but budget remains, the leftover spreads
// proportional to remaining capacity so a fixed budget is still spendable.
// The result is ordered like the input and fully deterministic — it is
// journaled verbatim by the distributed coordinator and re-derived on
// replay.
func (r StopRule) Allocate(classes []string, strata []StratumState, budget int) []StratumShare {
	r = r.normalized()
	bound := r.Bound()
	shares := make([]StratumShare, len(strata))
	caps := make([]int, len(strata))
	weights := make([]float64, len(strata))
	totalW, capSum := 0.0, 0
	for i, s := range strata {
		shares[i].Stratum = s.Key
		if c := s.Population - s.Drawn; c > 0 {
			caps[i] = c
		}
		capSum += caps[i]
		if caps[i] == 0 {
			continue
		}
		if r.Enabled() && r.StratumConverged(ClassIntervals(classes, s.Counts, s.Total, bound), s.Population) {
			continue
		}
		w := NeymanScore(classes, s)
		shares[i].Score = w
		weights[i] = w
		totalW += w
	}
	if budget > capSum {
		budget = capSum
	}
	if budget <= 0 {
		return shares
	}
	if totalW == 0 {
		// Everything converged (or the rule is disabled and no stratum
		// scored) with budget left: spend it proportional to capacity.
		for i := range strata {
			weights[i] = float64(caps[i])
			totalW += weights[i]
		}
	}
	// Largest-remainder rounding, capped at capacity. Ties and the spill
	// order are broken by input order, which is the plan's stratum order —
	// deterministic across runs and replays.
	type frac struct {
		i   int
		rem float64
	}
	assigned := 0
	fracs := make([]frac, 0, len(strata))
	for i := range strata {
		if weights[i] == 0 {
			continue
		}
		exact := float64(budget) * weights[i] / totalW
		n := int(exact)
		if n > caps[i] {
			n = caps[i]
		}
		shares[i].Next = n
		assigned += n
		fracs = append(fracs, frac{i, exact - float64(n)})
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for assigned < budget {
		progressed := false
		for _, f := range fracs {
			if assigned == budget {
				break
			}
			if shares[f.i].Next < caps[f.i] {
				shares[f.i].Next++
				assigned++
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// The weighted strata are at capacity; spill into any remaining.
		for i := range strata {
			if assigned == budget {
				break
			}
			if shares[i].Next < caps[i] {
				shares[i].Next++
				assigned++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return shares
}
