// Command sfi-beam runs the simulated proton-beam experiment standalone or
// as the Table 2 calibration against a matching SFI campaign.
//
// Examples:
//
//	sfi-beam -strikes 5000                # beam run only
//	sfi-beam -strikes 5000 -calibrate     # beam + SFI + chi-square
//	sfi-beam -strikes 2000 -array-weight 0.05 -nest
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sfi"
)

func main() {
	var (
		strikes   = flag.Int("strikes", 2000, "particle strikes to deliver")
		seed      = flag.Uint64("seed", 7, "beam randomness seed")
		gap       = flag.Float64("gap", 3000, "mean cycles between strikes")
		weight    = flag.Float64("array-weight", 0.008, "SRAM cell cross-section relative to a latch")
		nest      = flag.Bool("nest", false, "irradiate the core periphery too")
		calibrate = flag.Bool("calibrate", false, "also run a matching SFI campaign and compare (Table 2)")
		flips     = flag.Int("flips", 4000, "SFI campaign size for -calibrate")
	)
	flag.Parse()

	cfg := sfi.DefaultBeamConfig()
	cfg.Strikes = *strikes
	cfg.Seed = *seed
	cfg.MeanGap = *gap
	cfg.ArrayWeight = *weight
	cfg.Proc.EnableNest = *nest

	start := time.Now()
	rep, err := sfi.RunBeam(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfi-beam:", err)
		os.Exit(1)
	}
	fmt.Printf("beam run finished in %v (%d cycles irradiated)\n",
		time.Since(start).Round(time.Millisecond), rep.Cycles)
	fmt.Println(rep)

	if !*calibrate {
		return
	}
	ccfg := sfi.DefaultCampaignConfig()
	ccfg.Flips = *flips
	ccfg.Runner.Proc.EnableNest = *nest
	srep, err := sfi.RunCampaign(ccfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfi-beam:", err)
		os.Exit(1)
	}
	fmt.Println("\nmatching SFI campaign:")
	fmt.Print(srep)
	stat, p, err := sfi.CalibrateBeam(srep, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfi-beam:", err)
		os.Exit(1)
	}
	fmt.Printf("\ncalibration: chi-square %.3f, p = %.3f\n", stat, p)
}
