// Package awan implements a gate-level netlist emulation engine in the
// style of the paper's Awan accelerator: a design is a network of boolean
// nodes and latches that is compiled (levelized) into a straight-line
// program of boolean-function evaluations, one full execution of which is
// one machine cycle ("each run through the sequence of all instructions in
// all logic processors constitutes one machine cycle"). Latches are
// individually addressable for fault injection, enabling macro-level
// targeted SFI studies on gate-accurate logic.
package awan

import "fmt"

// Kind is a netlist node type.
type Kind int

// Node kinds.
const (
	KindInput Kind = iota + 1
	KindConst
	KindLatch
	KindAnd
	KindOr
	KindXor
	KindNot
	KindMux // S ? B : A
)

func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindConst:
		return "const"
	case KindLatch:
		return "latch"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	case KindXor:
		return "xor"
	case KindNot:
		return "not"
	case KindMux:
		return "mux"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

type node struct {
	kind    Kind
	a, b, s int // operand node ids
	d       int // latch next-state input (latches only)
	name    string
	val     bool // constants: the value
}

// Netlist is a design under construction.
type Netlist struct {
	nodes  []node
	byName map[string]int
}

// NewNetlist returns an empty netlist.
func NewNetlist() *Netlist {
	return &Netlist{byName: make(map[string]int)}
}

func (n *Netlist) add(nd node) int {
	id := len(n.nodes)
	n.nodes = append(n.nodes, nd)
	if nd.name != "" {
		if _, dup := n.byName[nd.name]; dup {
			panic(fmt.Sprintf("awan: duplicate node name %q", nd.name))
		}
		n.byName[nd.name] = id
	}
	return id
}

// Input adds a named primary input.
func (n *Netlist) Input(name string) int {
	return n.add(node{kind: KindInput, name: name})
}

// Const adds a constant node.
func (n *Netlist) Const(v bool) int {
	return n.add(node{kind: KindConst, val: v})
}

// Latch adds a named latch; connect its next-state input with SetD.
func (n *Netlist) Latch(name string) int {
	return n.add(node{kind: KindLatch, name: name, d: -1})
}

// SetD connects latch id's next-state input to node d.
func (n *Netlist) SetD(id, d int) {
	if n.nodes[id].kind != KindLatch {
		panic(fmt.Sprintf("awan: SetD on non-latch node %d", id))
	}
	n.nodes[id].d = d
}

// And adds a 2-input AND gate.
func (n *Netlist) And(a, b int) int { return n.add(node{kind: KindAnd, a: a, b: b}) }

// Or adds a 2-input OR gate.
func (n *Netlist) Or(a, b int) int { return n.add(node{kind: KindOr, a: a, b: b}) }

// Xor adds a 2-input XOR gate.
func (n *Netlist) Xor(a, b int) int { return n.add(node{kind: KindXor, a: a, b: b}) }

// Not adds an inverter.
func (n *Netlist) Not(a int) int { return n.add(node{kind: KindNot, a: a}) }

// Mux adds a 2:1 multiplexer: s ? b : a.
func (n *Netlist) Mux(a, b, s int) int { return n.add(node{kind: KindMux, a: a, b: b, s: s}) }

// Latches returns the ids of all latch nodes in creation order.
func (n *Netlist) Latches() []int {
	var out []int
	for id, nd := range n.nodes {
		if nd.kind == KindLatch {
			out = append(out, id)
		}
	}
	return out
}

// Gates returns the number of combinational gates.
func (n *Netlist) Gates() int {
	g := 0
	for _, nd := range n.nodes {
		switch nd.kind {
		case KindAnd, KindOr, KindXor, KindNot, KindMux:
			g++
		}
	}
	return g
}

// Lanes is the width of the engine's value plane: every node carries one
// uint64 word whose bit k is the node's value in simulation lane k. The
// boolean program is evaluated with bitwise operators, so one Eval advances
// all 64 lanes at once — classic parallel-pattern fault simulation. By
// convention lane 0 is the golden/reference computation and lanes 1..63
// each carry one independent fault (see Diverged).
const Lanes = 64

// broadcast expands a scalar boolean to an all-lanes word.
func broadcast(v bool) uint64 {
	if v {
		return ^uint64(0)
	}
	return 0
}

// Engine is a compiled netlist ready for cycle simulation: the levelized
// boolean program plus the value plane. The scalar facade (SetInput, Value,
// FlipLatch, SetLatch) broadcasts across all lanes, so single-fault users
// never see the lanes; the *Lanes methods address individual lanes for
// bit-parallel batched injection.
type Engine struct {
	nl      *Netlist
	program []int // combinational node ids in dependency order
	latches []int
	vals    []uint64 // one word per node: bit k = lane k's value
	scratch []uint64 // latch next-state buffer, reused across Steps
}

// Compile levelizes the netlist into an executable program. It returns an
// error if any latch lacks a next-state input or the combinational logic
// has a cycle.
func Compile(nl *Netlist) (*Engine, error) {
	for id, nd := range nl.nodes {
		if nd.kind == KindLatch && nd.d < 0 {
			return nil, fmt.Errorf("awan: latch %q (node %d) has no next-state input", nd.name, id)
		}
	}
	// Topological sort over combinational dependencies (latches, inputs
	// and constants are sources).
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]int, len(nl.nodes))
	var program []int
	var visit func(id int) error
	visit = func(id int) error {
		nd := nl.nodes[id]
		switch nd.kind {
		case KindInput, KindConst, KindLatch:
			return nil
		}
		switch state[id] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("awan: combinational cycle through node %d (%v)", id, nd.kind)
		}
		state[id] = visiting
		deps := []int{nd.a}
		switch nd.kind {
		case KindAnd, KindOr, KindXor:
			deps = append(deps, nd.b)
		case KindMux:
			deps = append(deps, nd.b, nd.s)
		}
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[id] = done
		program = append(program, id)
		return nil
	}
	for id := range nl.nodes {
		if err := visit(id); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		nl:      nl,
		program: program,
		latches: nl.Latches(),
		vals:    make([]uint64, len(nl.nodes)),
	}
	e.scratch = make([]uint64, len(e.latches))
	// Constants are sources: pin their values once.
	for id, nd := range nl.nodes {
		if nd.kind == KindConst {
			e.vals[id] = broadcast(nd.val)
		}
	}
	return e, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(nl *Netlist) *Engine {
	e, err := Compile(nl)
	if err != nil {
		panic(err)
	}
	return e
}

// SetInput drives a primary input across all lanes (stimulus is common to
// the golden lane and every fault lane).
func (e *Engine) SetInput(id int, v bool) {
	if e.nl.nodes[id].kind != KindInput {
		panic(fmt.Sprintf("awan: node %d is not an input", id))
	}
	e.vals[id] = broadcast(v)
}

// Value reads any node's current value in lane 0, the golden lane
// (combinational values are those of the last Eval/Step).
func (e *Engine) Value(id int) bool { return e.vals[id]&1 != 0 }

// Word reads any node's raw value word: bit k is the node's value in
// lane k.
func (e *Engine) Word(id int) uint64 { return e.vals[id] }

// LaneValue reads any node's current value in one lane.
func (e *Engine) LaneValue(id, lane int) bool { return e.vals[id]>>uint(lane)&1 != 0 }

// FlipLatch injects a fault: it inverts latch id's current state in every
// lane (the scalar path, where all lanes carry the same simulation).
func (e *Engine) FlipLatch(id int) {
	if e.nl.nodes[id].kind != KindLatch {
		panic(fmt.Sprintf("awan: node %d is not a latch", id))
	}
	e.vals[id] = ^e.vals[id]
}

// FlipLatchLanes inverts latch id's state in exactly the lanes set in mask —
// the batched-injection port: each fault lane gets its own flip while lane 0
// keeps the golden state.
func (e *Engine) FlipLatchLanes(id int, mask uint64) {
	if e.nl.nodes[id].kind != KindLatch {
		panic(fmt.Sprintf("awan: node %d is not a latch", id))
	}
	e.vals[id] ^= mask
}

// SetLatch forces latch id's state in every lane.
func (e *Engine) SetLatch(id int, v bool) {
	if e.nl.nodes[id].kind != KindLatch {
		panic(fmt.Sprintf("awan: node %d is not a latch", id))
	}
	e.vals[id] = broadcast(v)
}

// SetLatchLanes forces latch id's state to v in exactly the lanes set in
// mask, leaving the other lanes untouched (per-lane sticky fault forcing).
func (e *Engine) SetLatchLanes(id int, v bool, mask uint64) {
	if e.nl.nodes[id].kind != KindLatch {
		panic(fmt.Sprintf("awan: node %d is not a latch", id))
	}
	if v {
		e.vals[id] |= mask
	} else {
		e.vals[id] &^= mask
	}
}

// Eval runs the combinational program without clocking the latches. Every
// boolean function is a single bitwise word operation, advancing all 64
// lanes in one pass.
func (e *Engine) Eval() {
	vals := e.vals
	for _, id := range e.program {
		nd := &e.nl.nodes[id]
		switch nd.kind {
		case KindAnd:
			vals[id] = vals[nd.a] & vals[nd.b]
		case KindOr:
			vals[id] = vals[nd.a] | vals[nd.b]
		case KindXor:
			vals[id] = vals[nd.a] ^ vals[nd.b]
		case KindNot:
			vals[id] = ^vals[nd.a]
		case KindMux:
			s := vals[nd.s]
			vals[id] = s&vals[nd.b] | ^s&vals[nd.a]
		case KindConst:
			vals[id] = broadcast(nd.val)
		}
	}
}

// Step executes one machine cycle: evaluate all combinational logic, then
// clock every latch from its next-state input.
func (e *Engine) Step() {
	e.Eval()
	next := e.scratch
	for i, id := range e.latches {
		next[i] = e.vals[e.nl.nodes[id].d]
	}
	for i, id := range e.latches {
		e.vals[id] = next[i]
	}
}

// ProgramLength returns the number of boolean-function instructions per
// cycle.
func (e *Engine) ProgramLength() int { return len(e.program) }

// Snapshot copies the full value plane (latches, inputs and combinational
// values, all lanes) — a gate-level model checkpoint. The returned slice is
// owned by the caller and stays valid across further simulation.
func (e *Engine) Snapshot() []uint64 {
	snap := make([]uint64, len(e.vals))
	copy(snap, e.vals)
	return snap
}

// Restore overwrites the value plane from a Snapshot. The snapshot is read
// only, so one immutable snapshot can restore many engine clones.
func (e *Engine) Restore(snap []uint64) {
	if len(snap) != len(e.vals) {
		panic(fmt.Sprintf("awan: restore snapshot of %d values into %d-node engine",
			len(snap), len(e.vals)))
	}
	copy(e.vals, snap)
}

// Clone returns an independent engine over the same compiled design: the
// immutable netlist, program and latch list are shared, the value plane is
// copied. Clone and original can then be stepped concurrently.
func (e *Engine) Clone() *Engine {
	return &Engine{
		nl:      e.nl,
		program: e.program,
		latches: e.latches,
		vals:    e.Snapshot(),
		scratch: make([]uint64, len(e.latches)),
	}
}
