package sfi

import (
	"fmt"
	"strings"

	"sfi/internal/engine"
	"sfi/internal/latch"
	"sfi/internal/stats"
)

// This file implements the paper's experiments (every table and figure of
// the evaluation) as reusable drivers shared by cmd/sfi-tables and the
// benchmark harness. Each driver returns a structured result with a String
// rendering in the paper's layout.

// ---------------------------------------------------------------------------
// Figure 2: accuracy of SFI with increasing number of flips
// ---------------------------------------------------------------------------

// Fig2Config parameterizes the sample-size study.
type Fig2Config struct {
	Runner  RunnerConfig
	Sizes   []int  // numbers of flips ("X values"); paper: 2k..20k
	Samples int    // random samples per size; paper: 10
	Seed    uint64 // base seed; each sample s uses Seed + s
	Workers int
}

// DefaultFig2Config returns a scaled-down version of the paper's sweep
// (see DESIGN.md scaling disclosures).
func DefaultFig2Config() Fig2Config {
	return Fig2Config{
		Runner:  DefaultRunnerConfig(),
		Sizes:   []int{200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000},
		Samples: 10,
		Seed:    42,
	}
}

// Fig2Point is one x-position of Figure 2: the relative standard deviation
// per outcome category across the random samples.
type Fig2Point struct {
	Flips  int
	RelStd map[Outcome]float64
}

// Fig2Result is the full Figure 2 series.
type Fig2Result struct {
	Points []Fig2Point
}

// RunFig2 reproduces Figure 2: for each sample size, draw Samples
// independent random latch samples, run SFI on each, and report the
// standard deviation of each outcome category's count as a fraction of its
// mean.
func RunFig2(cfg Fig2Config) (*Fig2Result, error) {
	out := &Fig2Result{}
	for _, size := range cfg.Sizes {
		counts := make(map[Outcome][]float64)
		for s := 0; s < cfg.Samples; s++ {
			cc := CampaignConfig{
				Runner:      cfg.Runner,
				Seed:        cfg.Seed + uint64(s)*1000003 + uint64(size),
				Flips:       size,
				Workers:     cfg.Workers,
				KeepResults: false,
			}
			rep, err := RunCampaign(cc)
			if err != nil {
				return nil, err
			}
			for _, o := range Outcomes {
				counts[o] = append(counts[o], float64(rep.Counts[o]))
			}
		}
		pt := Fig2Point{Flips: size, RelStd: make(map[Outcome]float64)}
		for _, o := range Outcomes {
			pt.RelStd[o] = stats.RelStdDev(counts[o])
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// String renders the Figure 2 series as a table.
func (r *Fig2Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s", "flips")
	for _, o := range Outcomes {
		fmt.Fprintf(&sb, " %10s", o)
	}
	sb.WriteByte('\n')
	for _, pt := range r.Points {
		fmt.Fprintf(&sb, "%-8d", pt.Flips)
		for _, o := range Outcomes {
			fmt.Fprintf(&sb, " %10.4f", pt.RelStd[o])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 2: SFI versus proton beam calibration
// ---------------------------------------------------------------------------

// Table2Config parameterizes the calibration experiment.
type Table2Config struct {
	Runner  RunnerConfig
	Flips   int // SFI campaign size
	Beam    BeamConfig
	Seed    uint64
	Workers int
}

// DefaultTable2Config returns the standard calibration setup.
func DefaultTable2Config() Table2Config {
	return Table2Config{
		Runner: DefaultRunnerConfig(),
		Flips:  4000,
		Beam:   DefaultBeamConfig(),
		Seed:   2,
	}
}

// Table2Result holds both columns plus the agreement statistics.
type Table2Result struct {
	SFI  *Report
	Beam *BeamReport

	ChiSquare float64
	PValue    float64
}

// RunTable2 reproduces Table 2: a whole-population random SFI campaign
// side by side with a simulated beam run, and a chi-square agreement test.
func RunTable2(cfg Table2Config) (*Table2Result, error) {
	rep, err := RunCampaign(CampaignConfig{
		Runner:  cfg.Runner,
		Seed:    cfg.Seed,
		Flips:   cfg.Flips,
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	brep, err := RunBeam(cfg.Beam)
	if err != nil {
		return nil, err
	}
	stat, p, err := CalibrateBeam(rep, brep)
	if err != nil {
		return nil, err
	}
	return &Table2Result{SFI: rep, Beam: brep, ChiSquare: stat, PValue: p}, nil
}

// String renders Table 2 in the paper's layout.
func (r *Table2Result) String() string {
	bv, bc, bk := r.Beam.Fractions()
	f := fractions(r.SFI)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %10s %12s\n", "Category", "SFI", "Proton Beam")
	fmt.Fprintf(&sb, "%-12s %10d %12d\n", "Total flips", r.SFI.Total, r.Beam.Strikes)
	fmt.Fprintf(&sb, "%-12s %9.2f%% %11.2f%%\n", "Vanished", 100*f[Vanished], 100*bv)
	fmt.Fprintf(&sb, "%-12s %9.2f%% %11.2f%%\n", "Corrected", 100*f[Corrected], 100*bc)
	fmt.Fprintf(&sb, "%-12s %9.2f%% %11.2f%%\n", "Checkstop", 100*f[Checkstop], 100*bk)
	fmt.Fprintf(&sb, "chi-square %.3f (p = %.3f)\n", r.ChiSquare, r.PValue)
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figures 3 and 4: per-unit SER resilience and contribution
// ---------------------------------------------------------------------------

// Fig3Config parameterizes the per-unit targeted study.
type Fig3Config struct {
	Runner RunnerConfig
	// Fraction of each unit's latch population to inject (the paper uses
	// ~10% of the total latch bits).
	Fraction float64
	// MaxPerUnit caps the flips per unit (0 = no cap).
	MaxPerUnit int
	Seed       uint64
	Workers    int
}

// DefaultFig3Config returns the paper-style per-unit sweep.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		Runner:   DefaultRunnerConfig(),
		Fraction: 0.10,
		Seed:     3,
	}
}

// UnitOutcome is one unit's outcome distribution plus its population.
type UnitOutcome struct {
	Unit      string
	LatchBits int
	Flips     int
	Fractions map[Outcome]float64
}

// Fig3Result is the per-unit study (Figure 3) and the inputs Figure 4
// derives from.
type Fig3Result struct {
	PerUnit []UnitOutcome
}

// RunFig3 reproduces Figure 3: targeted fault injection into each
// micro-architectural unit.
func RunFig3(cfg Fig3Config) (*Fig3Result, error) {
	db, err := engine.Census(cfg.Runner)
	if err != nil {
		return nil, err
	}

	out := &Fig3Result{}
	for _, unit := range Units {
		bits := db.CountBits(latch.ByUnit(unit))
		flips := int(cfg.Fraction * float64(bits))
		if flips < 50 {
			flips = 50
		}
		if cfg.MaxPerUnit > 0 && flips > cfg.MaxPerUnit {
			flips = cfg.MaxPerUnit
		}
		if flips > bits {
			flips = bits
		}
		rep, err := RunCampaign(CampaignConfig{
			Runner:      cfg.Runner,
			Seed:        cfg.Seed + uint64(len(out.PerUnit)),
			Flips:       flips,
			Filter:      latch.ByUnit(unit),
			Workers:     cfg.Workers,
			KeepResults: false,
		})
		if err != nil {
			return nil, err
		}
		out.PerUnit = append(out.PerUnit, UnitOutcome{
			Unit:      unit,
			LatchBits: bits,
			Flips:     flips,
			Fractions: fractions(rep),
		})
	}
	return out, nil
}

// fractions is a campaign's estimated outcome fractions: its Estimate's
// pooled rows by outcome.
func fractions(rep *Report) map[Outcome]float64 {
	est, out := rep.Estimate().Pooled, make(map[Outcome]float64, len(Outcomes))
	for _, o := range Outcomes {
		out[o] = Row(est, o).Fraction
	}
	return out
}

// String renders Figure 3 as a table.
func (r *Fig3Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %8s %7s", "unit", "latches", "flips")
	for _, o := range Outcomes {
		fmt.Fprintf(&sb, " %10s", o)
	}
	sb.WriteByte('\n')
	for _, u := range r.PerUnit {
		fmt.Fprintf(&sb, "%-6s %8d %7d", u.Unit, u.LatchBits, u.Flips)
		for _, o := range Outcomes {
			fmt.Fprintf(&sb, " %9.2f%%", 100*u.Fractions[o])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fig4Result is each unit's contribution to the total recoveries, hangs and
// checkstops, weighting per-unit rates by latch population (the paper's
// Figure 4 normalization).
type Fig4Result struct {
	// Contribution[outcome][unit] sums to 1 over units for each outcome
	// with any events.
	Contribution map[Outcome]map[string]float64
}

// DeriveFig4 computes Figure 4 from the Figure 3 data.
func DeriveFig4(f3 *Fig3Result) *Fig4Result {
	out := &Fig4Result{Contribution: make(map[Outcome]map[string]float64)}
	for _, o := range []Outcome{Corrected, Hang, Checkstop} {
		weights := make(map[string]float64)
		total := 0.0
		for _, u := range f3.PerUnit {
			w := u.Fractions[o] * float64(u.LatchBits)
			weights[u.Unit] = w
			total += w
		}
		m := make(map[string]float64)
		for unit, w := range weights {
			if total > 0 {
				m[unit] = w / total
			}
		}
		out.Contribution[o] = m
	}
	return out
}

// String renders Figure 4 as a table.
func (r *Fig4Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-11s", "outcome")
	for _, u := range Units {
		fmt.Fprintf(&sb, " %7s", u)
	}
	sb.WriteByte('\n')
	for _, o := range []Outcome{Corrected, Hang, Checkstop} {
		fmt.Fprintf(&sb, "%-11s", o)
		for _, u := range Units {
			fmt.Fprintf(&sb, " %6.1f%%", 100*r.Contribution[o][u])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 5: SER of the different latch types
// ---------------------------------------------------------------------------

// Fig5Config parameterizes the per-latch-type study.
type Fig5Config struct {
	Runner   RunnerConfig
	Fraction float64 // fraction of each scan chain to inject (paper: ~10%)
	MinPer   int
	Seed     uint64
	Workers  int
}

// DefaultFig5Config returns the paper-style per-type sweep.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{
		Runner:   DefaultRunnerConfig(),
		Fraction: 0.10,
		MinPer:   200,
		Seed:     4,
	}
}

// TypeOutcome is one latch type's outcome distribution.
type TypeOutcome struct {
	Type      LatchType
	LatchBits int
	Flips     int
	Fractions map[Outcome]float64
}

// Fig5Result is the per-latch-type study.
type Fig5Result struct {
	PerType []TypeOutcome
}

// RunFig5 reproduces Figure 5: targeted injection into each latch type's
// scan chains.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	db, err := engine.Census(cfg.Runner)
	if err != nil {
		return nil, err
	}

	out := &Fig5Result{}
	for i, ty := range LatchTypes {
		bits := db.CountBits(latch.ByType(ty))
		flips := int(cfg.Fraction * float64(bits))
		if flips < cfg.MinPer {
			flips = cfg.MinPer
		}
		if flips > bits {
			flips = bits
		}
		rep, err := RunCampaign(CampaignConfig{
			Runner:      cfg.Runner,
			Seed:        cfg.Seed + uint64(i),
			Flips:       flips,
			Filter:      latch.ByType(ty),
			Workers:     cfg.Workers,
			KeepResults: false,
		})
		if err != nil {
			return nil, err
		}
		out.PerType = append(out.PerType, TypeOutcome{
			Type:      ty,
			LatchBits: bits,
			Flips:     flips,
			Fractions: fractions(rep),
		})
	}
	return out, nil
}

// String renders Figure 5 as a table.
func (r *Fig5Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %8s %7s", "type", "latches", "flips")
	for _, o := range Outcomes {
		fmt.Fprintf(&sb, " %10s", o)
	}
	sb.WriteByte('\n')
	for _, t := range r.PerType {
		fmt.Fprintf(&sb, "%-8v %8d %7d", t.Type, t.LatchBits, t.Flips)
		for _, o := range Outcomes {
			fmt.Fprintf(&sb, " %9.2f%%", 100*t.Fractions[o])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 3: effectiveness of the hardware checkers
// ---------------------------------------------------------------------------

// Table3Config parameterizes the checker ablation.
type Table3Config struct {
	Runner  RunnerConfig
	Flips   int
	Seed    uint64
	Workers int
}

// DefaultTable3Config returns the standard checker-ablation setup.
func DefaultTable3Config() Table3Config {
	return Table3Config{Runner: DefaultRunnerConfig(), Flips: 3000, Seed: 5}
}

// Table3Result holds the Raw (checkers masked) and Check (checkers enabled)
// campaign reports over the identical flip sample.
type Table3Result struct {
	Raw   *Report
	Check *Report
}

// RunTable3 reproduces Table 3: the same random flips with every hardware
// checker masked ("Raw") versus enabled ("Check").
func RunTable3(cfg Table3Config) (*Table3Result, error) {
	raw := CampaignConfig{
		Runner:      cfg.Runner,
		Seed:        cfg.Seed,
		Flips:       cfg.Flips,
		Workers:     cfg.Workers,
		KeepResults: false,
	}
	raw.Runner.CheckersOn = false
	rawRep, err := RunCampaign(raw)
	if err != nil {
		return nil, err
	}
	chk := raw
	chk.Runner.CheckersOn = true
	chkRep, err := RunCampaign(chk)
	if err != nil {
		return nil, err
	}
	return &Table3Result{Raw: rawRep, Check: chkRep}, nil
}

// String renders Table 3 in the paper's layout.
func (r *Table3Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %8s %8s %8s %8s %8s\n",
		"Type", "Vanish", "Rec", "Hangs", "Chk", "SDC")
	row := func(name string, rep *Report) {
		f := fractions(rep)
		fmt.Fprintf(&sb, "%-6s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", name,
			100*f[Vanished], 100*f[Corrected], 100*f[Hang], 100*f[Checkstop], 100*f[SDC])
	}
	row("Raw", r.Raw)
	row("Check", r.Check)
	return sb.String()
}

// ---------------------------------------------------------------------------
// Cause-and-effect tracing report (section 1's third capability)
// ---------------------------------------------------------------------------

// TraceReport renders the cause-effect traces of a campaign's detected,
// non-vanished injections: latch → first checker → outcome.
func TraceReport(rep *Report, max int) string {
	var sb strings.Builder
	n := 0
	for _, res := range rep.Results {
		if res.Outcome == Vanished {
			continue
		}
		fmt.Fprintf(&sb, "%s[%d].%d (%s, %v) -> ", res.Group, res.Entry,
			res.BitInEntry, res.Unit, res.LatchType)
		if res.Detected {
			fmt.Fprintf(&sb, "detected by %s after %d cycles -> ", res.FirstChecker, res.DetectLatency)
		} else {
			sb.WriteString("undetected -> ")
		}
		fmt.Fprintf(&sb, "%v (recoveries %d, %d cycles observed)\n",
			res.Outcome, res.Recoveries, res.Cycles)
		n++
		if max > 0 && n >= max {
			break
		}
	}
	if n == 0 {
		return "no non-vanished injections\n"
	}
	return sb.String()
}
