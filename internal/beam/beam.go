// Package beam simulates the proton-beam irradiation experiment the paper
// calibrates SFI against (Table 2). Unlike SFI, the beam has no
// controllability: particle strikes arrive at Poisson-distributed instants
// and hit a uniformly random storage bit — latches or ECC-protected SRAM
// array cells — while the AVP runs continuously. Only machine-visible
// evidence is observable: logged recoveries and ECC corrections,
// checkstops, hangs and AVP-detected bad architected state; everything else
// vanished.
//
// The relative strike probability of an SRAM cell versus a latch is a
// physical cross-section ratio the original experiment absorbed into its
// fluence calibration; here it is an explicit configuration input
// (ArrayWeight).
package beam

import (
	"fmt"
	"math"
	"math/rand/v2"

	"sfi/internal/avp"
	"sfi/internal/proc"
	"sfi/internal/stats"
)

// Config parameterizes a beam run.
type Config struct {
	Proc proc.Config
	AVP  avp.Config

	Seed    uint64
	Strikes int // total particle strikes to deliver

	// MeanGap is the mean number of cycles between strikes (exponential
	// inter-arrival times).
	MeanGap float64

	// ArrayWeight is the per-bit strike probability of an SRAM array cell
	// relative to a latch bit (cross-section ratio).
	ArrayWeight float64

	// SettleCycles is how long the machine is observed after the last
	// strike before the books are closed.
	SettleCycles int
}

// DefaultConfig returns a beam configuration calibrated to the model.
func DefaultConfig() Config {
	return Config{
		Proc:         proc.DefaultConfig(),
		AVP:          avp.DefaultConfig(),
		Seed:         7,
		Strikes:      2000,
		MeanGap:      3000,
		ArrayWeight:  0.008,
		SettleCycles: 20_000,
	}
}

// Report summarizes a beam run in the paper's Table 2 categories.
type Report struct {
	Strikes   int
	Corrected int // machine-logged recoveries + ECC corrections
	Checkstop int
	Hang      int
	SDC       int // AVP-detected incorrect architected state
	Vanished  int // strikes with no observable evidence

	Cycles uint64 // total cycles irradiated
}

// Fractions returns the category proportions in Table 2 order:
// vanished, corrected, checkstop (hang and SDC folded out, as the paper's
// Table 2 reports the three dominant categories).
func (r *Report) Fractions() (vanished, corrected, checkstop float64) {
	n := float64(r.Strikes)
	if n == 0 {
		return 0, 0, 0
	}
	return float64(r.Vanished) / n, float64(r.Corrected) / n, float64(r.Checkstop) / n
}

func (r *Report) String() string {
	v, c, k := r.Fractions()
	return fmt.Sprintf("strikes %d: vanished %.2f%%, corrected %.2f%%, checkstop %.2f%%, hang %d, sdc %d",
		r.Strikes, 100*v, 100*c, 100*k, r.Hang, r.SDC)
}

// Run executes a beam experiment.
func Run(cfg Config) (*Report, error) {
	if cfg.Strikes < 1 {
		return nil, fmt.Errorf("beam: need at least one strike")
	}
	cfg.AVP.MemBytes = cfg.Proc.MemBytes
	prog, err := avp.Generate(cfg.AVP)
	if err != nil {
		return nil, err
	}
	c := proc.New(cfg.Proc)
	c.Mem().LoadProgram(0, prog.Words)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xbea3))

	// Warm to steady state and checkpoint (the "system restart" image
	// used after fatal events, as the real rig power-cycled the machine).
	ends := 0
	for ; ends < 2*cfg.AVP.Testcases; ends++ {
		if err := c.RunToTestEnd(); err != nil {
			return nil, fmt.Errorf("beam: warm-up: %w", err)
		}
	}
	ckpt := c.SaveCheckpoint()
	nextTC := ends % cfg.AVP.Testcases
	baseRecov := c.Recoveries

	rep := &Report{Strikes: cfg.Strikes}

	// Strike target population.
	latchBits := c.DB().TotalBits()
	arrays := c.Arrays()
	arrayBits := 0
	for _, p := range arrays {
		arrayBits += p.TotalBits()
	}
	latchWeight := float64(latchBits)
	arrayWeight := cfg.ArrayWeight * float64(arrayBits)
	totalWeight := latchWeight + arrayWeight

	strike := func() {
		if rng.Float64()*totalWeight < latchWeight {
			c.DB().Flip(rng.IntN(latchBits))
			return
		}
		// Array strike: pick a cell uniformly across all arrays.
		n := rng.IntN(arrayBits)
		for _, p := range arrays {
			if n < p.TotalBits() {
				p.FlipBit(n/72, n%72)
				return
			}
			n -= p.TotalBits()
		}
	}

	// Evidence counters accumulated across machine restarts.
	var corrected uint64
	lastRecov := baseRecov
	arrayCorr := func() uint64 {
		var n uint64
		for _, p := range arrays {
			n += p.Corrected
		}
		return n
	}
	lastArrayCorr := arrayCorr()

	harvest := func() {
		corrected += (c.Recoveries - lastRecov) + (arrayCorr() - lastArrayCorr)
		lastRecov = c.Recoveries
		lastArrayCorr = arrayCorr()
	}

	restart := func() {
		harvest()
		c.RestoreCheckpoint(ckpt)
		lastRecov = c.Recoveries
		lastArrayCorr = arrayCorr()
	}

	tcIdx := nextTC
	sdcArmed := true
	nextStrike := int(expGap(rng, cfg.MeanGap))
	delivered := 0
	deadline := 0
	noProgressGuard := 0
	lastCompleted := c.Completed

	for delivered < cfg.Strikes || deadline < cfg.SettleCycles {
		ev := c.Step()
		rep.Cycles++
		if delivered >= cfg.Strikes {
			deadline++
		}

		// Deliver strikes on schedule.
		if delivered < cfg.Strikes {
			nextStrike--
			if nextStrike <= 0 {
				strike()
				delivered++
				nextStrike = int(expGap(rng, cfg.MeanGap))
			}
		}

		if ev.TestEnd {
			tc := prog.Testcases[tcIdx]
			tcIdx = (tcIdx + 1) % cfg.AVP.Testcases
			st := c.ArchState()
			sigOK := st.MaskedSignature(tc.GPRMask, tc.FPRMask, tc.SPRMask) == tc.SigMasked
			memOK := c.Mem().DigestRange(prog.DataLo, prog.DataHi) == tc.MemDigest
			if (!sigOK || !memOK) && sdcArmed {
				rep.SDC++
				restart()
				tcIdx = nextTC
			}
		}

		// Fatal events: record and restart the machine.
		if c.Checkstopped() {
			rep.Checkstop++
			restart()
			tcIdx = nextTC
		}
		if c.HangDetected() {
			rep.Hang++
			restart()
			tcIdx = nextTC
		}
		// Harness-level hang safety net.
		if c.Completed != lastCompleted {
			lastCompleted = c.Completed
			noProgressGuard = 0
		} else {
			noProgressGuard++
			if noProgressGuard > 3*cfg.Proc.HangLimit {
				rep.Hang++
				restart()
				tcIdx = nextTC
				lastCompleted = c.Completed
				noProgressGuard = 0
			}
		}
	}
	harvest()

	rep.Corrected = int(corrected)
	if rep.Corrected > rep.Strikes {
		// A single strike can cause repeated recovery events; the real
		// experiment has the same accounting ambiguity. Clamp.
		rep.Corrected = rep.Strikes
	}
	rep.Vanished = rep.Strikes - rep.Corrected - rep.Checkstop - rep.Hang - rep.SDC
	if rep.Vanished < 0 {
		rep.Vanished = 0
	}
	return rep, nil
}

func expGap(rng *rand.Rand, mean float64) float64 {
	return -mean * math.Log(1-rng.Float64())
}

// Calibrate compares SFI outcome proportions against a beam report the way
// Table 2 does, returning the chi-square statistic and p-value over the
// (vanished, corrected, checkstop) categories.
func Calibrate(sfiVanished, sfiCorrected, sfiCheckstop float64, rep *Report) (stat, p float64, err error) {
	bv, bc, bk := rep.Fractions()
	n := float64(rep.Strikes)
	observed := []float64{bv * n, bc * n, bk * n}
	expected := []float64{sfiVanished * n, sfiCorrected * n, sfiCheckstop * n}
	stat, err = stats.ChiSquareStat(observed, expected)
	if err != nil {
		return 0, 0, err
	}
	return stat, stats.ChiSquarePValue(stat, 2), nil
}
