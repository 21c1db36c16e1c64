package core

import (
	"encoding/json"
	"sort"

	"sfi/internal/stats"
)

// JSON serialization of campaign reports, for downstream tooling (plotting
// the figures, regression-tracking resilience across design revisions).

// reportJSON is the stable export format of a Report. by_unit and by_type
// are the cross's marginals.
type reportJSON struct {
	Total     int                       `json:"total"`
	Counts    map[string]int            `json:"counts"`
	Fractions map[string]float64        `json:"fractions"`
	ByUnit    map[string]map[string]int `json:"by_unit"`
	ByType    map[string]map[string]int `json:"by_type"`
	// ByStratum, the cross itself, is present only for a report with a
	// Census (a stratified draw's), so uniform report JSON stays
	// byte-identical.
	ByStratum map[string]map[string]int     `json:"by_stratum,omitempty"`
	Results   []resultJSON                  `json:"results,omitempty"`
	Intervals map[string]map[string]float64 `json:"wilson95,omitempty"`
	// Convergence is present only for adaptive campaigns (StopConfig set),
	// so fixed-N report JSON stays byte-identical.
	Convergence *stats.Convergence `json:"convergence,omitempty"`
}

type resultJSON struct {
	Bit           int    `json:"bit"`
	Group         string `json:"group"`
	Unit          string `json:"unit"`
	LatchType     string `json:"latch_type"`
	Entry         int    `json:"entry"`
	BitInEntry    int    `json:"bit_in_entry"`
	Outcome       string `json:"outcome"`
	Detected      bool   `json:"detected"`
	FirstChecker  string `json:"first_checker,omitempty"`
	DetectLatency uint64 `json:"detect_latency,omitempty"`
	Recoveries    uint64 `json:"recoveries"`
	Cycles        uint64 `json:"cycles"`
}

// MarshalJSON renders the report in a stable, self-describing format.
// Per-injection results are included only for non-vanished injections (the
// interesting traces); aggregate counts always cover everything.
func (r *Report) MarshalJSON() ([]byte, error) {
	out := reportJSON{
		Total:     r.Total,
		Counts:    make(map[string]int),
		Fractions: make(map[string]float64),
		ByUnit:    make(map[string]map[string]int),
		ByType:    make(map[string]map[string]int),
		Intervals: make(map[string]map[string]float64),
	}
	out.Convergence = r.Convergence
	for _, ci := range r.Estimate().Pooled {
		out.Counts[ci.Class] = int(ci.K)
		out.Fractions[ci.Class] = ci.Fraction
		out.Intervals[ci.Class] = map[string]float64{"lo": ci.Lo, "hi": ci.Hi}
	}
	byUnit, byType := r.Marginals()
	for unit, m := range byUnit {
		out.ByUnit[unit] = outcomeRowJSON(m)
	}
	for ty, m := range byType {
		out.ByType[ty.String()] = outcomeRowJSON(m)
	}
	if r.Census != nil {
		out.ByStratum = make(map[string]map[string]int, len(r.ByStratum))
		for key, m := range r.ByStratum {
			out.ByStratum[key] = outcomeRowJSON(m)
		}
	}
	var interesting []Result
	for _, res := range r.Results {
		if res.Outcome != Vanished {
			interesting = append(interesting, res)
		}
	}
	sort.Slice(interesting, func(i, j int) bool { return interesting[i].Bit < interesting[j].Bit })
	for _, res := range interesting {
		out.Results = append(out.Results, resultJSON{
			Bit:           res.Bit,
			Group:         res.Group,
			Unit:          res.Unit,
			LatchType:     res.LatchType.String(),
			Entry:         res.Entry,
			BitInEntry:    res.BitInEntry,
			Outcome:       res.Outcome.String(),
			Detected:      res.Detected,
			FirstChecker:  res.FirstChecker,
			DetectLatency: res.DetectLatency,
			Recoveries:    res.Recoveries,
			Cycles:        res.Cycles,
		})
	}
	return json.Marshal(out)
}

func outcomeRowJSON(row map[Outcome]int) map[string]int {
	out := make(map[string]int, len(row))
	for o, n := range row {
		out[o.String()] = n
	}
	return out
}
