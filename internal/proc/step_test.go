package proc

import (
	"testing"

	"sfi/internal/avp"
)

// newAVPCore returns a core running the default AVP in its periodic regime
// (two warm passes, as the p6lite backend does), and the testcase count of
// one pass.
func newAVPCore(tb testing.TB) (*Core, int) {
	tb.Helper()
	return newAVPCoreWith(tb, DefaultConfig())
}

// newAVPCoreWith is newAVPCore on a core of configuration pc.
func newAVPCoreWith(tb testing.TB, pc Config) (*Core, int) {
	tb.Helper()
	cfg := avp.DefaultConfig()
	cfg.MemBytes = pc.MemBytes
	prog, err := avp.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c := New(pc)
	c.Mem().LoadProgram(0, prog.Words)
	for pass := 0; pass < 2; pass++ {
		runPass(tb, c, cfg.Testcases)
	}
	return c, cfg.Testcases
}

// runPass clocks the core through n testend barriers.
func runPass(tb testing.TB, c *Core, n int) {
	tb.Helper()
	advancePass(tb, c, n, 1)
}

// advancePass clocks the core through n testend barriers by Advance(limit):
// with limit 1, one Step at a time.
func advancePass(tb testing.TB, c *Core, n int, limit uint64) {
	tb.Helper()
	for guard := 0; n > 0; guard++ {
		if guard > 1_000_000 || c.Checkstopped() {
			tb.Fatalf("pass did not complete (cycle %d, checkstop %v)", c.Cycle, c.Checkstopped())
		}
		if _, ev := c.Advance(limit); ev.TestEnd {
			n--
		}
	}
}

// TestStepZeroAllocs pins the per-cycle path allocation-free: a campaign
// clocks the model hundreds of millions of times, so a single boxed value
// per cycle is a measurable tax. The second case covers the recovery
// sequencer and the checkpoint-array reads, which a fault-free pass never
// enters. Both run one cycle at a time and through Advance's bulk path.
func TestStepZeroAllocs(t *testing.T) {
	c, n := newAVPCore(t)
	// r13 holds the testcase data base: each testcase sets it first and
	// then reads it on every load and store, so a flip a few cycles into
	// a testcase is caught by GPR parity at once.
	g, _ := c.DB().GroupByName("fxu.gpr")
	bit := g.Offset() + 13*g.Width + 5
	for _, limit := range []uint64{1, 1 << 20} {
		bulk := c.BulkCycles()
		if a := testing.AllocsPerRun(3, func() { advancePass(t, c, n, limit) }); a != 0 {
			t.Errorf("fault-free pass, Advance(%d): %v allocs, want 0", limit, a)
		}
		before := c.Recoveries
		a := testing.AllocsPerRun(3, func() {
			for i := 0; i < 40; i++ {
				c.Step()
			}
			c.DB().Flip(bit)
			advancePass(t, c, n, limit)
		})
		if got := c.Recoveries - before; got != 4 { // 1 warm-up + 3 measured runs
			t.Fatalf("%d recoveries over 4 flipped passes, want one each", got)
		}
		if a != 0 {
			t.Errorf("pass with one RUT recovery, Advance(%d): %v allocs, want 0", limit, a)
		}
		if moved := c.BulkCycles() != bulk; moved != (limit > 1) {
			t.Errorf("Advance(%d) advanced cycles in bulk: %v", limit, moved)
		}
	}
}

// BenchmarkStep times one model cycle under the default AVP, the unit every
// injection's cost is a multiple of: fault-free, and in the recover loop of
// a permanent stuck-at on lsu.stq.addr[13] bit 18 (logical bit 14133),
// re-forced after every step as p6lite does it — the regime that holds most
// of a sticky campaign's host time (EXPERIMENTS.md "Permanent faults"). The
// advance cases run the same cycles through Core.Advance, as p6lite's
// clocked loops do, and report ns per observed cycle: a counter-only stall
// costs its first cycle and the arithmetic for the rest.
func BenchmarkStep(b *testing.B) {
	for _, bulk := range []bool{false, true} {
		name := ""
		if bulk {
			name = "advance-"
		}
		b.Run(name+"fault-free", func(b *testing.B) {
			c, _ := newAVPCore(b)
			b.ReportAllocs()
			b.ResetTimer()
			clockN(c, b.N, bulk, func() {})
			if c.Checkstopped() {
				b.Fatal("fault-free run checkstopped")
			}
		})
		b.Run(name+"recovering", func(b *testing.B) {
			c, _ := newAVPCore(b)
			if g, e, bit := c.DB().Locate(stuckBit); g.Name != "lsu.stq.addr" || e != 13 || bit != 18 {
				b.Fatalf("bit %d is %s[%d] bit %d, want lsu.stq.addr[13] bit 18", stuckBit, g.Name, e, bit)
			}
			stuck := c.DB().BitRef(stuckBit)
			v := stuck.Flip()
			recov := c.Recoveries
			b.ReportAllocs()
			b.ResetTimer()
			clockN(c, b.N, bulk, func() { stuck.Set(v) })
			b.StopTimer()
			if c.Checkstopped() || c.HangDetected() {
				b.Fatal("the recover loop ended in a checkstop or a hang")
			}
			if b.N > 20_000 && c.Recoveries == recov {
				b.Fatalf("%d cycles of a held stq.addr fault recovered nothing", b.N)
			}
		})
	}
}

// clockN clocks c through n cycles, by Step or, with bulk, by Advance,
// calling force after each call: a held bit outside the words Advance
// writes by arithmetic.
func clockN(c *Core, n int, bulk bool, force func()) {
	if !bulk {
		for i := 0; i < n; i++ {
			c.Step()
			force()
		}
		return
	}
	for n > 0 {
		k, _ := c.Advance(uint64(n))
		n -= int(k)
		force()
	}
}

// stuckBit is BenchmarkStep/recovering's permanently faulty latch bit.
const stuckBit = 14133

// BenchmarkRestoreCheckpoint times the reload every injection starts with,
// by the dirty path and by the full copy it is tested against. Each
// iteration first dirties the model the way an injection does (a flip and a
// short run, untimed), so the dirty path pays for a realistic dirty set.
func BenchmarkRestoreCheckpoint(b *testing.B) {
	c, _ := newAVPCore(b)
	c.InstallRestoreBaseline()
	ck := c.SaveCheckpoint()
	for _, path := range []struct {
		name    string
		restore func(*ModelCheckpoint)
	}{{"dirty", c.RestoreCheckpoint}, {"full", c.RestoreCheckpointFull}} {
		b.Run(path.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c.DB().Flip(0)
				for s := 0; s < 200; s++ {
					c.Step()
				}
				b.StartTimer()
				path.restore(ck)
			}
		})
	}
}
