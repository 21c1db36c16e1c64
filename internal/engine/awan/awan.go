// Package awan adapts the gate-level netlist engine (internal/awan) as an
// engine backend, so gate-accurate designs run under the full SFI campaign
// stack — sampling, sharding, warm-clone workers, metrics/trace/progress
// and distributed execution — exactly like the latch-accurate core model.
//
// The design under test is a bank of checked-ALU macros (adder datapath
// with a mod-3 residue predictor/checker, internal/awan.BuildCheckedALU),
// sized by Config.Awan. The workload is a deterministic operand stream:
// each operation takes two cycles (load operands, execute), and every
// operation boundary is a verification barrier at which the result
// registers are compared against golden sums computed from the stimulus
// formula. A residue-check error output firing is terminal — the
// gate-level analogue of a checkstop — so a flip the macro masks, detects
// or silently corrupts classifies as vanished, checkstop or sdc.
package awan

import (
	"fmt"

	gate "sfi/internal/awan"
	"sfi/internal/engine"
	"sfi/internal/latch"
)

// Name is the backend's registry name.
const Name = "awan"

func init() {
	engine.Register(Name, New)
	engine.RegisterCensus(Name, census)
}

// design is the structure census and New share: the netlist of checked-ALU
// macros cfg sizes, and the latch database mirroring its injectable
// population — one group per register bus, registered in the order bit2node
// is filled, so logical bit i is netlist node bit2node[i].
type design struct {
	width    int
	nl       *gate.Netlist
	alus     []*gate.CheckedALU
	db       *latch.DB
	bit2node []int
}

func build(cfg engine.Config) (*design, error) {
	sz, err := cfg.Awan.Sized()
	if err != nil {
		return nil, err
	}
	d := &design{width: sz.Width, nl: gate.NewNetlist(), db: latch.NewDB()}
	for l := 0; l < sz.Lanes; l++ {
		name := fmt.Sprintf("alu%d", l)
		alu := d.nl.BuildCheckedALU(name, sz.Width)
		d.alus = append(d.alus, alu)
		for _, r := range []struct {
			suffix string
			kind   latch.Type
			bus    gate.Bus
		}{
			{".a", latch.RegFile, alu.RegA},
			{".b", latch.RegFile, alu.RegB},
			{".res", latch.Func, alu.Result},
			{".rsd", latch.Func, alu.ResPred},
		} {
			d.db.RegisterArray("ALU", r.kind, name+r.suffix, 1, len(r.bus))
			d.bit2node = append(d.bit2node, r.bus...)
		}
	}
	d.db.Freeze()
	return d, nil
}

// census enumerates the latch population without compiling or warming the
// netlist.
func census(cfg engine.Config) (*latch.DB, error) {
	d, err := build(cfg)
	if err != nil {
		return nil, err
	}
	return d.db, nil
}

// stimSeed seeds the deterministic operand stream. Like the AVP, the
// gate-level workload is part of the model configuration, so independent
// processes building the same config drive identical stimulus (the
// campaign Seed keeps driving sampling only).
const stimSeed = 0xa3a95eedc0def00d

// phases is the phased-checkpoint count: consecutive operation boundaries
// a warmed backend snapshots, across which injections are spread.
const phases = 8

// warmOps is the number of operations run before checkpointing, filling
// every register with live workload data.
const warmOps = 4

// gateCkpt is a gate-level model snapshot plus workload tracking. vals is
// the engine's state nodes (latches and inputs, all 64 lanes of each);
// checkpoints are captured from a clean (fault-free) machine, so every lane
// of a restored plane starts bit-identical to the golden lane.
type gateCkpt struct {
	vals    []uint64
	op      int
	opCycle int
	cycle   uint64
}

// Backend owns one compiled netlist warmed for repeated injections.
type Backend struct {
	cfg  engine.Config
	mask uint64 // the operand width's low bits

	eng  *gate.Engine
	alus []*gate.CheckedALU

	// db mirrors the design's latch population for sampling and metadata.
	// Latch values live in the gate engine, not in the db storage, so the
	// db is immutable after construction and shared read-only by clones;
	// bit2node maps its logical bit indices to netlist node ids.
	db       *latch.DB
	bit2node []int

	ckpts []gateCkpt

	cycle   uint64
	op      int // workload operation index
	opCycle int // 0 = load cycle, 1 = execute cycle
	// golden holds each lane's expected result for the barrier just
	// retired, computed from the stimulus formula (never from the possibly
	// corrupted registers).
	golden []uint64

	errSeen  bool
	errCycle uint64
	errLane  int

	// Active sticky force, if any.
	stickyNode  int
	stickyVal   bool
	stickyUntil uint64 // cycle bound; 0 = forever
	stickyOn    bool

	// lastBatch holds the phase breakdown of the most recent RunBatch
	// pass on this instance (engine.BatchStatsReporter).
	lastBatch engine.BatchStats
}

// New builds, warms and checkpoints a gate-level backend.
func New(cfg engine.Config) (engine.Backend, error) {
	d, err := build(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := gate.Compile(d.nl)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		cfg:      cfg,
		mask:     ^uint64(0) >> uint(64-d.width),
		eng:      eng,
		alus:     d.alus,
		db:       d.db,
		bit2node: d.bit2node,
		golden:   make([]uint64, len(d.alus)),
	}

	// Warm: fill every register with live workload data, then capture one
	// checkpoint per operation boundary.
	for i := 0; i < 2*warmOps; i++ {
		b.Step()
	}
	for p := 0; p < phases; p++ {
		b.ckpts = append(b.ckpts, b.snapshot())
		b.Step()
		b.Step()
	}
	return b, nil
}

// operand is the stimulus formula: lane l's operand (which = 0 for A, 1
// for B) of operation op.
func (b *Backend) operand(op, lane, which int) uint64 {
	h := engine.Splitmix64(stimSeed +
		uint64(op)*0x9e3779b97f4a7c15 +
		uint64(lane)*0xbf58476d1ce4e5b9 +
		uint64(which)*0x94d049bb133111eb)
	return h & b.mask
}

func (b *Backend) snapshot() gateCkpt {
	return gateCkpt{vals: b.eng.Snapshot(), op: b.op, opCycle: b.opCycle, cycle: b.cycle}
}

func (b *Backend) restore(ck gateCkpt) {
	b.eng.Restore(ck.vals)
	b.op = ck.op
	b.opCycle = ck.opCycle
	b.cycle = ck.cycle
	b.errSeen = false
	b.errCycle = 0
	b.errLane = 0
	b.stickyOn = false
}

// DB exposes the design's latch population.
func (b *Backend) DB() *latch.DB { return b.db }

// Phases returns the phased-checkpoint count.
func (b *Backend) Phases() int { return len(b.ckpts) }

// ReloadPhase restores phased checkpoint p, clearing error and sticky
// state.
func (b *Backend) ReloadPhase(p int) { b.restore(b.ckpts[p]) }

// stepStim drives the stimulus for the current workload position and
// clocks the netlist, advancing the workload tracking — the lane-neutral
// core of Step, shared with the bit-parallel RunBatch loop. It reports
// whether the cycle retired an operation (a verification barrier).
func (b *Backend) stepStim() (barrier bool) {
	if b.opCycle == 0 {
		for l, alu := range b.alus {
			b.eng.SetInputBus(alu.InA, b.operand(b.op, l, 0))
			b.eng.SetInputBus(alu.InB, b.operand(b.op, l, 1))
			b.eng.SetInput(alu.Load, true)
		}
		b.eng.Step()
		b.opCycle = 1
	} else {
		for _, alu := range b.alus {
			b.eng.SetInput(alu.Load, false)
		}
		b.eng.Step()
		for l := range b.alus {
			b.golden[l] = (b.operand(b.op, l, 0) + b.operand(b.op, l, 1)) & b.mask
		}
		b.op++
		b.opCycle = 0
		barrier = true
	}
	b.cycle++
	return barrier
}

// Step clocks one machine cycle: drive the stimulus for the current
// workload position, evaluate and clock the netlist, maintain any sticky
// force, and poll the error outputs. Operation boundaries are barriers.
func (b *Backend) Step() engine.Event {
	var ev engine.Event
	ev.Barrier = b.stepStim()
	if b.stickyOn {
		if b.stickyUntil != 0 && b.cycle >= b.stickyUntil {
			b.stickyOn = false
		} else {
			b.eng.SetLatch(b.stickyNode, b.stickyVal)
		}
	}
	// The error outputs are combinational: Step's Eval computed them from
	// the pre-clock register values, so a flip applied between cycles is
	// visible on the very next step. Raw mode (checkers masked) ignores
	// them entirely.
	if b.cfg.CheckersOn && !b.errSeen {
		for l, alu := range b.alus {
			if b.eng.Value(alu.ErrOut) {
				b.errSeen = true
				b.errCycle = b.cycle
				b.errLane = l
				break
			}
		}
	}
	return ev
}

// Inject applies a fault: the latch bit is flipped in the netlist, and in
// sticky mode the flipped value is re-forced after every subsequent cycle
// until the duration expires.
func (b *Backend) Inject(inj engine.Injection) error {
	total := len(b.bit2node)
	if inj.Bit < 0 || inj.Bit >= total {
		return fmt.Errorf("awan: injection bit %d out of range [0,%d)", inj.Bit, total)
	}
	node := b.bit2node[inj.Bit]
	b.eng.FlipLatch(node)
	for i := 1; i < inj.Span && inj.Bit+i < total; i++ {
		b.eng.FlipLatch(b.bit2node[inj.Bit+i])
	}
	if inj.Mode == engine.Sticky {
		b.stickyNode = node
		b.stickyVal = b.eng.Value(node)
		b.stickyOn = true
		if inj.Duration > 0 {
			b.stickyUntil = b.cycle + uint64(inj.Duration)
		} else {
			b.stickyUntil = 0
		}
	}
	return nil
}

// Run clocks up to maxCycles, stopping at a failed barrier callback or on
// a residue-check detection (the gate-level checkstop). The design has no
// speculative control flow, so hang and no-progress never fire.
func (b *Backend) Run(maxCycles int, onBarrier func() bool) engine.RunStats {
	var st engine.RunStats
	for i := 0; i < maxCycles; i++ {
		ev := b.Step()
		st.Cycles++
		st.Stepped++ // nothing is replayed on this backend: every observed cycle is clocked
		if ev.Barrier {
			st.Barriers++
			if onBarrier != nil && !onBarrier() {
				return st
			}
		}
		if b.errSeen {
			st.Checkstop = true
			return st
		}
	}
	return st
}

// CheckBarrier compares every lane's result register against the golden
// sum of the operation that just retired. The gate design has no recovery
// hardware, so barriers are never busy.
func (b *Backend) CheckBarrier() engine.BarrierCheck {
	ok := true
	for l, alu := range b.alus {
		if b.eng.BusValue(alu.Result) != b.golden[l] {
			ok = false
			break
		}
	}
	return engine.BarrierCheck{StateOK: ok}
}

func (b *Backend) checkerName(lane int) string {
	return fmt.Sprintf("alu%d.residue", lane)
}

// Verdict reports the residue-check state: a detection is terminal
// (checkstop), and without recovery hardware there are no recoveries or
// standalone corrections.
func (b *Backend) Verdict() engine.Verdict {
	v := engine.Verdict{Checkstop: b.errSeen}
	if b.errSeen {
		v.Detected = true
		v.FirstChecker = b.checkerName(b.errLane)
		v.DetectCycle = b.errCycle
	}
	return v
}

// FIRNames returns the posted checker names (at most one: detection stops
// the run).
func (b *Backend) FIRNames() []string {
	if !b.errSeen {
		return nil
	}
	return []string{b.checkerName(b.errLane)}
}

// Cycle returns the current machine cycle.
func (b *Backend) Cycle() uint64 { return b.cycle }

// Clone duplicates the warmed backend: the compiled netlist, latch
// database and checkpoints are shared immutably, the value plane is
// fresh.
func (b *Backend) Clone() engine.Backend {
	nb := *b
	nb.eng = b.eng.Clone()
	nb.golden = append([]uint64(nil), b.golden...)
	nb.restore(b.ckpts[0])
	return &nb
}
