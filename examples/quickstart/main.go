// Quickstart: run a small statistical fault-injection campaign over the
// whole core and print the outcome distribution — the minimal SFI flow:
// build a model, warm the AVP workload, sample latches, inject, classify.
package main

import (
	"fmt"
	"log"

	"sfi"
)

func main() {
	cfg := sfi.DefaultCampaignConfig()
	cfg.Flips = 1500
	cfg.Seed = 2026

	report, err := sfi.RunCampaign(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Whole-core random SFI campaign:")
	fmt.Print(report)

	est := report.Estimate().Pooled
	pct := func(o sfi.Outcome) float64 { return 100 * sfi.Row(est, o).Fraction }
	fmt.Println("\nDerating summary:")
	fmt.Printf("  %.1f%% of injected bit flips were architecturally masked.\n", pct(sfi.Vanished))
	fmt.Printf("  %.1f%% were detected and corrected by the RAS hardware.\n", pct(sfi.Corrected))
	fmt.Printf("  %.2f%% escalated to checkstop, %.2f%% hung the core, %.2f%% corrupted architected state.\n",
		pct(sfi.Checkstop), pct(sfi.Hang), pct(sfi.SDC))

	fmt.Println("\nFirst few cause-effect traces:")
	fmt.Print(sfi.TraceReport(report, 8))
}
