// Checkers: the paper's Table 3 study — the same fault sample with every
// hardware checker masked ("Raw") versus enabled ("Check"), plus the
// recovery-disable ablation. Demonstrates the paper's counterintuitive
// result: enabling checkers *lowers* the vanished fraction, because
// conservative checkers catch corrupt-but-harmless state and convert it
// into visible recoveries and checkstops.
package main

import (
	"fmt"
	"log"

	"sfi"
)

func main() {
	cfg := sfi.DefaultTable3Config()
	cfg.Flips = 2000

	r, err := sfi.RunTable3(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Effect of the hardware checkers (Table 3):")
	fmt.Print(r)

	frac := func(rep *sfi.Report, o sfi.Outcome) float64 { return sfi.Row(rep.Estimate().Pooled, o).Fraction }
	fmt.Printf("\nEnabling the checkers moved %.1f points of \"vanished\" into "+
		"machine-visible events,\nand suppressed SDC from %.2f%% to %.2f%%.\n",
		100*(frac(r.Raw, sfi.Vanished)-frac(r.Check, sfi.Vanished)),
		100*frac(r.Raw, sfi.SDC), 100*frac(r.Check, sfi.SDC))

	// Ablation: recovery unit disabled — detected errors escalate.
	ccfg := sfi.DefaultCampaignConfig()
	ccfg.Flips = 2000
	ccfg.Seed = cfg.Seed
	ccfg.Runner.RecoveryOn = false
	noRec, err := sfi.RunCampaign(ccfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nWith the recovery unit disabled, the same sample gives:\n")
	fmt.Printf("  corrected %.2f%% (was %.2f%%), checkstop %.2f%% (was %.2f%%)\n",
		100*frac(noRec, sfi.Corrected), 100*frac(r.Check, sfi.Corrected),
		100*frac(noRec, sfi.Checkstop), 100*frac(r.Check, sfi.Checkstop))
	fmt.Println("  — every detected error becomes fatal without retry.")
}
