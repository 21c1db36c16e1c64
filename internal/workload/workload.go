// Package workload reproduces the paper's Table 1: a comparison of the
// AVP's instruction mix and CPI against the eleven components of the
// SPECInt 2000 suite. SPEC traces are proprietary, so each component is a
// synthetic profile whose per-class target mix is consistent with the
// summary statistics the paper publishes (the Low/High/Average columns);
// the actual mix is measured dynamically on the generated stream and the
// CPI is measured by running the stream on the core model — as the paper's
// "performance estimation tool" did.
package workload

import (
	"fmt"

	"sfi/internal/avp"
	"sfi/internal/isa"
	"sfi/internal/proc"
)

// Component is one synthetic SPECInt 2000 profile.
type Component struct {
	Name   string
	Target map[isa.Class]float64 // target dynamic mix, fractions
}

// Components returns the eleven SPECInt 2000 component profiles. The
// per-class minima, maxima and means across the rows match the paper's
// published Low/High/Average bounds.
func Components() []Component {
	row := func(name string, ld, st, fx, fp, cmp, br float64) Component {
		return Component{Name: name, Target: map[isa.Class]float64{
			isa.ClassLoad:   ld / 100,
			isa.ClassStore:  st / 100,
			isa.ClassFixed:  fx / 100,
			isa.ClassFloat:  fp / 100,
			isa.ClassCmp:    cmp / 100,
			isa.ClassBranch: br / 100,
		}}
	}
	return []Component{
		row("gzip", 28.0, 8.0, 28.0, 0, 8.0, 18.0),
		row("vpr", 30.0, 12.0, 20.0, 9.1, 9.0, 9.9),
		row("gcc", 25.0, 16.0, 18.0, 0, 9.0, 22.0),
		row("mcf", 35.6, 6.4, 24.0, 0, 10.0, 14.0),
		row("crafty", 27.0, 9.0, 30.0, 0, 11.0, 13.0),
		row("parser", 24.0, 12.0, 20.0, 0, 15.1, 18.9),
		row("eon", 30.0, 20.0, 22.0, 4.1, 6.0, 7.9),
		row("perlbmk", 26.0, 15.0, 15.0, 0, 5.2, 28.8),
		row("gap", 27.0, 12.0, 35.9, 0, 8.2, 6.9),
		row("vortex", 29.0, 31.7, 6.2, 0, 9.1, 14.0),
		row("bzip2", 18.9, 17.3, 29.0, 0, 4.8, 20.0),
	}
}

// Measurement is one profile's measured dynamic mix and CPI.
type Measurement struct {
	Name string
	Mix  map[isa.Class]float64
	CPI  float64
}

// Measure generates a stream matching the component's target mix
// (iteratively calibrating the generator weights against the measured
// dynamic mix) and measures its CPI on the core model.
func Measure(comp Component, seed uint64) (Measurement, error) {
	cfg := avp.DefaultConfig()
	cfg.Seed = seed
	cfg.Testcases = 8
	cfg.BodyOps = 80
	cfg.SkipEpilogue = true
	cfg.Weights = avp.Weights{
		Load:   comp.Target[isa.ClassLoad],
		Store:  comp.Target[isa.ClassStore],
		Fixed:  comp.Target[isa.ClassFixed],
		Float:  comp.Target[isa.ClassFloat],
		Cmp:    comp.Target[isa.ClassCmp],
		Branch: comp.Target[isa.ClassBranch],
	}

	var prog *avp.Program
	for iter := 0; iter < 6; iter++ {
		p, err := avp.Generate(cfg)
		if err != nil {
			return Measurement{}, fmt.Errorf("workload %s: %w", comp.Name, err)
		}
		prog = p
		// Multiplicative calibration toward the target mix.
		adj := func(w *float64, c isa.Class) {
			target := comp.Target[c]
			got := p.DynMix(c)
			if target <= 0 {
				*w = 0
				return
			}
			if got <= 0 {
				*w *= 2
				return
			}
			f := target / got
			if f > 3 {
				f = 3
			}
			if f < 1.0/3 {
				f = 1.0 / 3
			}
			*w *= f
		}
		adj(&cfg.Weights.Load, isa.ClassLoad)
		adj(&cfg.Weights.Store, isa.ClassStore)
		adj(&cfg.Weights.Fixed, isa.ClassFixed)
		adj(&cfg.Weights.Float, isa.ClassFloat)
		adj(&cfg.Weights.Cmp, isa.ClassCmp)
		adj(&cfg.Weights.Branch, isa.ClassBranch)
	}

	cpi, err := MeasureCPI(prog, cfg.Testcases)
	if err != nil {
		return Measurement{}, fmt.Errorf("workload %s: %w", comp.Name, err)
	}
	mix := make(map[isa.Class]float64, len(isa.Classes))
	for _, c := range isa.Classes {
		mix[c] = prog.DynMix(c)
	}
	return Measurement{Name: comp.Name, Mix: mix, CPI: cpi}, nil
}

// MeasureCPI runs a generated program on the core model and returns the
// steady-state cycles-per-instruction over one full pass (after two warm
// passes).
func MeasureCPI(prog *avp.Program, testcases int) (float64, error) {
	pcfg := proc.DefaultConfig()
	c := proc.New(pcfg)
	c.Mem().LoadProgram(0, prog.Words)
	for ends := 0; ends < 2*testcases; ends++ {
		if err := c.RunToTestEnd(); err != nil {
			return 0, fmt.Errorf("workload: CPI warm-up: %w", err)
		}
	}
	startCycles, startInsts := c.Cycle, c.Completed
	for ends := 0; ends < testcases; ends++ {
		if err := c.RunToTestEnd(); err != nil {
			return 0, fmt.Errorf("workload: CPI measurement: %w", err)
		}
	}
	insts := c.Completed - startInsts
	if insts == 0 {
		return 0, fmt.Errorf("workload: no instructions completed")
	}
	return float64(c.Cycle-startCycles) / float64(insts), nil
}

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Class             isa.Class
	Low, High, Avg    float64
	AVP               float64
	LowName, HighName string
}

// Table1 measures every component plus the AVP and assembles the paper's
// Table 1: per-class Low/High/Average across the SPEC components and the
// AVP column, plus the CPI row.
type Table1 struct {
	Rows       []Table1Row
	CPILow     float64
	CPIHigh    float64
	CPIAvg     float64
	CPIAVP     float64
	Components []Measurement
	AVPMix     map[isa.Class]float64
}

// BuildTable1 runs the full Table 1 experiment.
func BuildTable1(seed uint64) (*Table1, error) {
	comps := Components()
	t := &Table1{}
	for i, comp := range comps {
		m, err := Measure(comp, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		t.Components = append(t.Components, m)
	}

	// AVP measurement: the real default AVP configuration, epilogue
	// included.
	avpCfg := avp.DefaultConfig()
	avpProg, err := avp.Generate(avpCfg)
	if err != nil {
		return nil, err
	}
	avpCPI, err := MeasureCPI(avpProg, avpCfg.Testcases)
	if err != nil {
		return nil, err
	}
	t.CPIAVP = avpCPI
	t.AVPMix = make(map[isa.Class]float64)
	for _, c := range isa.Classes {
		t.AVPMix[c] = avpProg.DynMix(c)
	}

	for _, cls := range isa.Classes {
		row := Table1Row{Class: cls, Low: 2, High: -1}
		sum := 0.0
		for _, m := range t.Components {
			v := m.Mix[cls]
			sum += v
			if v < row.Low {
				row.Low = v
				row.LowName = m.Name
			}
			if v > row.High {
				row.High = v
				row.HighName = m.Name
			}
		}
		row.Avg = sum / float64(len(t.Components))
		row.AVP = t.AVPMix[cls]
		t.Rows = append(t.Rows, row)
	}

	t.CPILow, t.CPIHigh = 1e9, -1
	cpiSum := 0.0
	for _, m := range t.Components {
		cpiSum += m.CPI
		if m.CPI < t.CPILow {
			t.CPILow = m.CPI
		}
		if m.CPI > t.CPIHigh {
			t.CPIHigh = m.CPI
		}
	}
	t.CPIAvg = cpiSum / float64(len(t.Components))
	return t, nil
}

// String renders the table in the paper's layout.
func (t *Table1) String() string {
	s := fmt.Sprintf("%-16s %8s %8s %8s %8s\n", "Instruction Mix", "Low", "High", "Average", "AVP")
	for _, r := range t.Rows {
		s += fmt.Sprintf("%-16s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			r.Class, 100*r.Low, 100*r.High, 100*r.Avg, 100*r.AVP)
	}
	s += fmt.Sprintf("%-16s %8.2f %8.2f %8.2f %8.2f\n", "CPI",
		t.CPILow, t.CPIHigh, t.CPIAvg, t.CPIAVP)
	return s
}
