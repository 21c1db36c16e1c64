// Command sfi-avp generates the Architectural Verification Program, runs it
// on the latch-accurate core, and reports its dynamic instruction mix, CPI
// and golden-signature health — the workload side of the paper's Table 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"sfi/internal/avp"
	"sfi/internal/isa"
	"sfi/internal/proc"
	"sfi/internal/workload"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 0x5eed, "AVP generation seed")
		testcases = flag.Int("testcases", 12, "testcases per pass")
		bodyOps   = flag.Int("body", 40, "body operations per testcase")
		passes    = flag.Int("passes", 3, "passes to run on the core")
	)
	flag.Parse()

	if err := run(*seed, *testcases, *bodyOps, *passes); err != nil {
		fmt.Fprintln(os.Stderr, "sfi-avp:", err)
		os.Exit(1)
	}
}

func run(seed uint64, testcases, bodyOps, passes int) error {
	cfg := avp.DefaultConfig()
	cfg.Seed = seed
	cfg.Testcases = testcases
	cfg.BodyOps = bodyOps
	prog, err := avp.Generate(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("AVP: %d testcases, %d instruction words, %d instructions per pass\n",
		testcases, len(prog.Words), prog.GoldenInstPerPass)
	fmt.Printf("data area: %#x..%#x\n\n", prog.DataLo, prog.DataHi)

	fmt.Println("dynamic instruction mix (steady-state pass):")
	for _, c := range isa.Classes {
		fmt.Printf("  %-16s %5.1f%%\n", c, 100*prog.DynMix(c))
	}

	cpi, err := workload.MeasureCPI(prog, testcases)
	if err != nil {
		return err
	}
	fmt.Printf("\nCPI on the core model: %.2f\n", cpi)

	// Run the AVP on the core, checking every barrier.
	c := proc.New(proc.DefaultConfig())
	c.Mem().LoadProgram(0, prog.Words)
	checked, bad := 0, 0
	warm := 2 * testcases
	for ends := 1; ends <= (2+passes)*testcases; ends++ {
		if err := c.RunToTestEnd(); err != nil {
			return err
		}
		if ends <= warm {
			continue
		}
		tc := prog.Testcases[(ends-1)%testcases]
		st := c.ArchState()
		if st.MaskedSignature(tc.GPRMask, tc.FPRMask, tc.SPRMask) != tc.SigMasked ||
			c.Mem().DigestRange(prog.DataLo, prog.DataHi) != tc.MemDigest {
			bad++
		}
		checked++
	}
	fmt.Printf("barriers checked on the core: %d (%d signature mismatches)\n", checked, bad)
	if bad > 0 {
		return fmt.Errorf("golden signature mismatches on a fault-free run")
	}
	return nil
}
