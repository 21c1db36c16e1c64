package awan

import (
	"fmt"
	"math/bits"
	"time"

	"sfi/internal/engine"
)

// This file implements engine.BatchBackend: classic parallel-pattern fault
// simulation. The gate engine's value plane is 64 bits wide per node, so
// one levelized Eval + latch clock advances 64 simulations in lockstep.
// Lane 0 carries the golden/reference computation and each fault lane
// k >= 1 carries one independent injection; a lane's fault is applied by
// XOR-ing only its bit of the target latch word, and divergence from the
// reference is detected word-wide by comparing every lane against lane 0.
//
// Correctness rests on one invariant: until its flip is applied, a fault
// lane is bit-identical to the golden lane (checkpoints are captured from
// a clean machine and stimulus is broadcast), so per-lane phase-jitter
// delays need no per-lane stepping — flipping lane k's mask after delay_k
// lockstep cycles reproduces the scalar trajectory exactly. Every per-lane
// stopping rule below mirrors the scalar Step/run ordering: clock, sticky
// re-force, checker poll, then barrier verdict before checkstop before the
// window bound.

var _ engine.BatchBackend = (*Backend)(nil)

// MaxBatch returns the number of independent fault lanes one RunBatch pass
// carries: the engine's word width minus the golden lane, optionally
// narrowed by Config.BatchLanes (1 disables batching entirely).
func (b *Backend) MaxBatch() int {
	lanes := 64
	if n := b.cfg.BatchLanes; n > 0 && n < lanes {
		lanes = n
	}
	return lanes - 1
}

// RunBatch restores phased checkpoint p once, then runs every injection in
// its own fault lane to its scalar-identical verdict. Lanes beyond
// len(injs) never receive a flip, so they track the golden lane
// bit-for-bit and cannot fire a checker or diverge — a short final batch
// is padding-safe by construction.
func (b *Backend) RunBatch(p int, injs []engine.BatchInjection, window, quiesce int) ([]engine.BatchResult, error) {
	if len(injs) == 0 {
		return nil, nil
	}
	if max := b.MaxBatch(); len(injs) > max {
		return nil, fmt.Errorf("awan: batch of %d injections exceeds %d fault lanes", len(injs), max)
	}
	total := len(b.bit2node)
	for _, bi := range injs {
		if bi.Inj.Bit < 0 || bi.Inj.Bit >= total {
			return nil, fmt.Errorf("awan: injection bit %d out of range [0,%d)", bi.Inj.Bit, total)
		}
	}
	t0 := time.Now()
	b.ReloadPhase(p)
	b.lastBatch = engine.BatchStats{RestoreNs: time.Since(t0).Nanoseconds()}

	// Per-lane bookkeeping, indexed by fault lane k in 1..n. The lane sets
	// themselves (pending/active/errSeen/stickyOn) are bit masks in the
	// same lane coordinates as the value plane.
	n := len(injs)
	delay := make([]int, n+1)
	for i, bi := range injs {
		delay[i+1] = bi.Delay
	}
	injectCycle := make([]uint64, n+1)
	barrierAt := make([]int, n+1)   // barriers already retired when the lane injected
	cleanEnds := make([]int, n+1)   // consecutive clean barriers (quiesce early exit)
	errCycle := make([]uint64, n+1) // cycle the lane's first checker fired
	errALU := make([]int, n+1)      // which ALU's checker fired first
	stickyNode := make([]int, n+1)
	stickyVal := make([]bool, n+1)
	stickyUntil := make([]uint64, n+1)

	res := make([]engine.BatchResult, n)
	var pending uint64 // lanes whose flip is still scheduled
	for k := 1; k <= n; k++ {
		pending |= 1 << uint(k)
	}
	var active, errSeen, stickyOn uint64
	barriers := 0 // barriers retired since the reload
	t := 0        // cycles stepped since the reload

	stop := func(k int, sdc, checkstop bool) {
		cycles := uint64(t - delay[k])
		st := engine.RunStats{
			Cycles:    cycles,
			Stepped:   cycles, // as in the scalar Run: observed is clocked
			Barriers:  barriers - barrierAt[k],
			Checkstop: checkstop,
		}
		var v engine.Verdict
		if errSeen>>uint(k)&1 != 0 {
			v.Checkstop = true
			v.Detected = true
			v.FirstChecker = b.checkerName(errALU[k])
			v.DetectCycle = errCycle[k]
		}
		res[k-1] = engine.BatchResult{Stats: st, Verdict: v, SDC: sdc, InjectCycle: injectCycle[k]}
		active &^= 1 << uint(k)
		stickyOn &^= 1 << uint(k)
	}

	for pending|active != 0 {
		// Arm the lanes whose phase-jitter delay expires this cycle.
		for w := pending; w != 0; w &= w - 1 {
			k := bits.TrailingZeros64(w)
			if delay[k] != t {
				continue
			}
			pending &^= 1 << uint(k)
			active |= 1 << uint(k)
			injectCycle[k] = b.cycle
			barrierAt[k] = barriers
			inj := injs[k-1].Inj
			node := b.bit2node[inj.Bit]
			mask := uint64(1) << uint(k)
			b.eng.FlipLatchLanes(node, mask)
			for i := 1; i < inj.Span && inj.Bit+i < total; i++ {
				b.eng.FlipLatchLanes(b.bit2node[inj.Bit+i], mask)
			}
			if inj.Mode == engine.Sticky {
				stickyNode[k] = node
				stickyVal[k] = b.eng.LaneValue(node, k)
				stickyOn |= mask
				if inj.Duration > 0 {
					stickyUntil[k] = b.cycle + uint64(inj.Duration)
				} else {
					stickyUntil[k] = 0
				}
			}
		}

		// One lockstep machine cycle, in the scalar Step order: clock,
		// re-force the sticky lanes, poll the checker outputs.
		barrier := b.stepStim()
		t++
		for w := stickyOn; w != 0; w &= w - 1 {
			k := bits.TrailingZeros64(w)
			if stickyUntil[k] != 0 && b.cycle >= stickyUntil[k] {
				stickyOn &^= 1 << uint(k)
			} else {
				b.eng.SetLatchLanes(stickyNode[k], stickyVal[k], 1<<uint(k))
			}
		}
		if b.cfg.CheckersOn && active&^errSeen != 0 {
			// ALUs in macro order so the first checker to post wins,
			// exactly like the scalar poll's break.
			for l, alu := range b.alus {
				w := b.eng.Word(alu.ErrOut) & active &^ errSeen
				if w == 0 {
					continue
				}
				for ; w != 0; w &= w - 1 {
					k := bits.TrailingZeros64(w)
					errSeen |= 1 << uint(k)
					errCycle[k] = b.cycle
					errALU[k] = l
				}
			}
		}

		// Per-lane stopping rules in the scalar run() order: barrier
		// verdict first, then checkstop, then the window bound.
		if barrier {
			barriers++
			if active != 0 {
				var diverged uint64
				for _, alu := range b.alus {
					diverged |= b.eng.Diverged(alu.Result)
				}
				for w := active; w != 0; w &= w - 1 {
					k := bits.TrailingZeros64(w)
					if diverged>>uint(k)&1 != 0 {
						stop(k, true, false) // architected state diverged: SDC
						continue
					}
					cleanEnds[k]++
					if quiesce != 0 && cleanEnds[k] >= quiesce {
						stop(k, false, false)
						b.lastBatch.Quiesced++
					}
				}
			}
		}
		for w := active & errSeen; w != 0; w &= w - 1 {
			stop(bits.TrailingZeros64(w), false, true)
		}
		for w := active; w != 0; w &= w - 1 {
			k := bits.TrailingZeros64(w)
			if t-delay[k] >= window {
				stop(k, false, false)
			}
		}
	}
	b.lastBatch.RunNs = time.Since(t0).Nanoseconds() - b.lastBatch.RestoreNs
	b.lastBatch.Cycles = t
	b.lastBatch.Barriers = barriers
	return res, nil
}

var _ engine.BatchStatsReporter = (*Backend)(nil)

// LastBatchStats returns the phase breakdown of the most recent RunBatch
// pass (engine.BatchStatsReporter).
func (b *Backend) LastBatchStats() engine.BatchStats {
	return b.lastBatch
}
