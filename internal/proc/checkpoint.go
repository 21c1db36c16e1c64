package proc

import (
	"sfi/internal/array"
	"sfi/internal/dirty"
)

// ModelCheckpoint is a full snapshot of the machine — latches, protected
// arrays, memory and run counters. The emulation engine saves one after
// warm-up and reloads it before every injection, exactly as the paper's
// flow does ("after the fault injection has completed, the model is
// reloaded from a checkpoint").
//
// A checkpoint is immutable after capture and may be shared: multiple
// engines (e.g. cloned campaign workers) can reload from one snapshot
// concurrently. Each store's image remembers the restore baseline it was
// captured against, so RestoreCheckpoint on a core sharing that baseline
// rewrites only the state that actually differs — the dirty fast path.
type ModelCheckpoint struct {
	latches    *dirty.Image[uint64]
	arrays     []*array.Image
	memory     *dirty.Image[byte]
	cycle      uint64
	completed  uint64
	recoveries uint64
	halted     bool
}

// InstallRestoreBaseline snapshots the current state as the restore
// baseline for the dirty-tracking fast path: from now on, latch, memory and
// array writes are tracked, checkpoints capture sparse deltas against this
// baseline, and RestoreCheckpoint rewrites only touched state. Call it once
// the model has reached the state checkpoints will be taken near (after
// workload warm-up); installing a fresh baseline invalidates the fast path
// of previously captured checkpoints (they fall back to the full copy).
func (c *Core) InstallRestoreBaseline() {
	c.db.SetBaseline()
	c.mem.SetBaseline()
	for _, p := range c.arrays {
		p.SetBaseline()
	}
}

// AdoptBaselineFrom shares src's restore baseline with this core (the
// baseline image is immutable, so sharing is read-only safe) and resets the
// live state to that baseline. src must have the same configuration and a
// baseline installed. The caller is expected to RestoreCheckpoint next;
// counters and capture state are synchronized there. This is the
// warm-runner cloning primitive: the adopting core skips workload warm-up
// entirely and never reads src's live (possibly concurrently running)
// state.
func (c *Core) AdoptBaselineFrom(src *Core) {
	if c.cfg != src.cfg {
		panic("proc: AdoptBaselineFrom across different configurations")
	}
	c.db.AdoptBaseline(src.db.Baseline())
	c.mem.AdoptBaseline(src.mem.Baseline())
	for i, p := range c.arrays {
		p.AdoptBaseline(src.arrays[i].Baseline())
	}
}

// SaveCheckpoint captures the complete model state.
func (c *Core) SaveCheckpoint() *ModelCheckpoint {
	ck := &ModelCheckpoint{
		latches:    c.db.Snapshot(),
		memory:     c.mem.Snapshot(),
		cycle:      c.Cycle,
		completed:  c.Completed,
		recoveries: c.Recoveries,
		halted:     c.halted,
	}
	for _, p := range c.arrays {
		ck.arrays = append(ck.arrays, p.Snapshot())
	}
	return ck
}

// RestoreCheckpoint reloads the model from a checkpoint taken on the same
// configuration, clearing error counters and capture state. A store whose
// image was captured against its installed baseline rewrites only what
// differs (words/pages/entries dirtied since the last restore, plus the
// image's own delta); otherwise it takes the full copy.
func (c *Core) RestoreCheckpoint(ck *ModelCheckpoint) {
	c.db.Restore(ck.latches)
	c.mem.Restore(ck.memory)
	for i, p := range c.arrays {
		p.Restore(ck.arrays[i])
	}
	c.finishRestore(ck)
}

// RestoreCheckpointFull reloads the model by full copy, whatever baseline
// the checkpoint was captured against. It is the correctness baseline the
// dirty path is verified against (see the differential tests).
func (c *Core) RestoreCheckpointFull(ck *ModelCheckpoint) {
	c.db.RestoreFull(ck.latches)
	c.mem.RestoreFull(ck.memory)
	for i, p := range c.arrays {
		p.RestoreFull(ck.arrays[i])
	}
	c.finishRestore(ck)
}

// finishRestore resets counters and capture state common to both restore
// paths.
func (c *Core) finishRestore(ck *ModelCheckpoint) {
	for _, p := range c.arrays {
		p.ResetCounters()
	}
	c.Cycle = ck.cycle
	c.Completed = ck.completed
	c.Recoveries = ck.recoveries
	c.halted = ck.halted
	c.pendErr = c.pendErr[:0]
	c.prv.firstErrSeen = false
	for _, ch := range c.checkers {
		ch.Fired = 0
	}
}
