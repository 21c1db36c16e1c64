// Periphery: the paper's stated future work — "fault injections in the
// periphery of the core, such as the I/O subsystem, memory subsystem and so
// on". With the NEST enabled, every L1 miss is serviced through an L2 cache
// and a parity-protected memory-controller request queue, all injectable.
// This example targets the periphery and contrasts its resilience profile
// with the core's.
package main

import (
	"fmt"
	"log"

	"sfi"
)

func main() {
	cfg := sfi.DefaultCampaignConfig()
	cfg.Runner.Proc.EnableNest = true
	cfg.Flips = 1200
	cfg.Filter = sfi.ByUnit(sfi.UnitNEST)

	nest, err := sfi.RunCampaign(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Targeted campaign into the core periphery (L2 + memory controller):")
	fmt.Print(nest)

	coreCfg := cfg
	coreCfg.Filter = sfi.ByUnit("LSU")
	core, err := sfi.RunCampaign(coreCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSame campaign into the LSU, for contrast:")
	fmt.Print(core)

	fmt.Printf("\nPeriphery derating: %.1f%% vanished (LSU: %.1f%%).\n",
		100*sfi.Row(nest.Estimate().Pooled, sfi.Vanished).Fraction,
		100*sfi.Row(core.Estimate().Pooled, sfi.Vanished).Fraction)
	fmt.Println("Most periphery state is idle coherence/DMA machinery in this")
	fmt.Println("configuration; the live request queue is parity-protected, so its")
	fmt.Println("corruption recovers. Scan-ring hits remain fatal, as in the core.")

	fmt.Println("\nCause-effect traces from the periphery:")
	fmt.Print(sfi.TraceReport(nest, 10))
}
