// Package awan implements a gate-level netlist emulation engine in the
// style of the paper's Awan accelerator: a design is a network of boolean
// nodes and latches that is compiled (levelized) into a straight-line
// program of boolean-function evaluations, one full execution of which is
// one machine cycle ("each run through the sequence of all instructions in
// all logic processors constitutes one machine cycle"). Latches are
// individually addressable for fault injection, enabling macro-level
// targeted SFI studies on gate-accurate logic.
package awan

import (
	"fmt"
	"math"
)

// Kind is a netlist node type.
type Kind uint8

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

// arity is the number of operands a gate kind reads (a, then b, then s);
// 0 for the sources, which the program never evaluates.
func (k Kind) arity() int {
	switch k {
	case KindNot:
		return 1
	case KindAnd, KindOr, KindXor:
		return 2
	case KindMux:
		return 3
	}
	return 0
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
	for i := range n.nodes {
		if n.nodes[i].kind.arity() > 0 {
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

// program is the compiled boolean program, one instruction per gate in
// dependency order, as a struct of arrays: instruction i is
//
//	vals[dst[i]] = op[i](vals[a[i]], vals[b[i]], vals[s[i]])
//
// with operands that are value-plane indices (node ids); b is unread by
// KindNot and s by everything but KindMux. Five flat arrays rather than one
// array of 20-byte structs: a run through reads 17 bytes a gate, and the
// struct form measured 6-18% slower (EXPERIMENTS.md "Bit-parallel awan lanes").
type program struct {
	op           []Kind
	dst, a, b, s []int32
}

func (p *program) emit(op Kind, dst, a, b, s int) {
	p.op = append(p.op, op)
	p.dst = append(p.dst, int32(dst))
	p.a = append(p.a, int32(a))
	p.b = append(p.b, int32(b))
	p.s = append(p.s, int32(s))
}

// Engine is a compiled netlist ready for cycle simulation: the boolean
// program as one flat instruction stream, the latch clocking lists, and the
// value plane. It keeps nothing of the Netlist it was compiled from beyond
// a kind byte per node, so the build-time graph (nodes, names) is garbage
// once Compile returns. The scalar facade (SetInput, Value, FlipLatch,
// SetLatch) broadcasts across all lanes, so single-fault users never see
// the lanes; the *Lanes methods address individual lanes for bit-parallel
// batched injection.
type Engine struct {
	prog  program // one run through is one machine cycle's combinational logic
	kinds []Kind  // per node, for the facade's argument checks
	state []int32 // the nodes a Snapshot holds: latches in creation order, then inputs
	next  []int32 // next[i] is the node latch state[i] clocks from

	vals    []uint64 // one word per node: bit k = lane k's value
	scratch []uint64 // latch next-state buffer, reused across Steps
}

// Compile levelizes the netlist into an executable program. It returns an
// error if any latch lacks a next-state input or the combinational logic
// has a cycle.
func Compile(nl *Netlist) (*Engine, error) {
	if len(nl.nodes) > math.MaxInt32 {
		return nil, fmt.Errorf("awan: %d nodes exceed the program's 32-bit operand range", len(nl.nodes))
	}
	e := &Engine{
		kinds: make([]Kind, len(nl.nodes)),
		vals:  make([]uint64, len(nl.nodes)),
	}
	var inputs []int32
	for id, nd := range nl.nodes {
		e.kinds[id] = nd.kind
		switch nd.kind {
		case KindLatch:
			if nd.d < 0 {
				return nil, fmt.Errorf("awan: latch %q (node %d) has no next-state input", nd.name, id)
			}
			e.state = append(e.state, int32(id))
			e.next = append(e.next, int32(nd.d))
		case KindInput:
			inputs = append(inputs, int32(id))
		case KindConst:
			// Constants are sources: pinned once, never re-evaluated.
			e.vals[id] = broadcast(nd.val)
		}
	}
	e.state = append(e.state, inputs...)
	e.scratch = make([]uint64, len(e.next))

	// Topological sort over combinational dependencies (latches, inputs
	// and constants are sources): a depth-first walk on an explicit stack,
	// emitting a gate once all of its operands have been. mark[id] is 0 for
	// an unvisited gate, 1+k while it is on the stack with k operands
	// already descended into, and done after it is emitted.
	const done = 0xff
	mark := make([]uint8, len(nl.nodes))
	gates := nl.Gates()
	e.prog = program{
		op:  make([]Kind, 0, gates),
		dst: make([]int32, 0, gates),
		a:   make([]int32, 0, gates),
		b:   make([]int32, 0, gates),
		s:   make([]int32, 0, gates),
	}
	var stack []int32
	for root := range nl.nodes {
		if nl.nodes[root].kind.arity() == 0 || mark[root] == done {
			continue
		}
		mark[root] = 1
		stack = append(stack[:0], int32(root))
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			nd := &nl.nodes[id]
			if k := int(mark[id]) - 1; k < nd.kind.arity() {
				mark[id]++
				dep := [3]int{nd.a, nd.b, nd.s}[k]
				switch {
				case nl.nodes[dep].kind.arity() == 0 || mark[dep] == done:
				case mark[dep] != 0:
					return nil, fmt.Errorf("awan: combinational cycle through node %d (%v)", dep, nl.nodes[dep].kind)
				default:
					mark[dep] = 1
					stack = append(stack, int32(dep))
				}
				continue
			}
			mark[id] = done
			stack = stack[:len(stack)-1]
			e.prog.emit(nd.kind, int(id), nd.a, nd.b, nd.s)
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
	if e.kinds[id] != KindInput {
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
	if e.kinds[id] != KindLatch {
		panic(fmt.Sprintf("awan: node %d is not a latch", id))
	}
	e.vals[id] = ^e.vals[id]
}

// FlipLatchLanes inverts latch id's state in exactly the lanes set in mask —
// the batched-injection port: each fault lane gets its own flip while lane 0
// keeps the golden state.
func (e *Engine) FlipLatchLanes(id int, mask uint64) {
	if e.kinds[id] != KindLatch {
		panic(fmt.Sprintf("awan: node %d is not a latch", id))
	}
	e.vals[id] ^= mask
}

// SetLatch forces latch id's state in every lane.
func (e *Engine) SetLatch(id int, v bool) {
	if e.kinds[id] != KindLatch {
		panic(fmt.Sprintf("awan: node %d is not a latch", id))
	}
	e.vals[id] = broadcast(v)
}

// SetLatchLanes forces latch id's state to v in exactly the lanes set in
// mask, leaving the other lanes untouched (per-lane sticky fault forcing).
func (e *Engine) SetLatchLanes(id int, v bool, mask uint64) {
	if e.kinds[id] != KindLatch {
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
	vals, op := e.vals, e.prog.op
	// Equal lengths, said so the compiler can see it: the instruction index
	// needs no bounds check in any of the five arrays.
	dst, a, b, s := e.prog.dst[:len(op)], e.prog.a[:len(op)], e.prog.b[:len(op)], e.prog.s[:len(op)]
	for i, o := range op {
		switch o {
		case KindAnd:
			vals[dst[i]] = vals[a[i]] & vals[b[i]]
		case KindOr:
			vals[dst[i]] = vals[a[i]] | vals[b[i]]
		case KindXor:
			vals[dst[i]] = vals[a[i]] ^ vals[b[i]]
		case KindNot:
			vals[dst[i]] = ^vals[a[i]]
		case KindMux:
			sel := vals[s[i]]
			vals[dst[i]] = sel&vals[b[i]] | ^sel&vals[a[i]]
		}
	}
}

// Step executes one machine cycle: evaluate all combinational logic, then
// clock every latch from its next-state input.
func (e *Engine) Step() {
	e.Eval()
	vals, next := e.vals, e.scratch
	for i, d := range e.next {
		next[i] = vals[d]
	}
	for i, v := range next {
		vals[e.state[i]] = v
	}
}

// ProgramLength returns the number of boolean-function instructions per
// cycle.
func (e *Engine) ProgramLength() int { return len(e.prog.op) }

// Snapshot copies the state nodes — every latch and input, all lanes — a
// gate-level model checkpoint. Combinational values are a function of those
// and constants never change, so neither is carried. The returned slice is
// owned by the caller and stays valid across further simulation.
func (e *Engine) Snapshot() []uint64 {
	snap := make([]uint64, len(e.state))
	for i, id := range e.state {
		snap[i] = e.vals[id]
	}
	return snap
}

// Restore loads the state nodes from a Snapshot and re-evaluates the
// combinational logic from them, so the whole value plane is a function of
// the snapshot alone and nothing of the run it replaces survives. The
// snapshot is read only, so one immutable snapshot can restore many engine
// clones.
func (e *Engine) Restore(snap []uint64) {
	if len(snap) != len(e.state) {
		panic(fmt.Sprintf("awan: restore snapshot of %d values into engine with %d state nodes",
			len(snap), len(e.state)))
	}
	for i, id := range e.state {
		e.vals[id] = snap[i]
	}
	e.Eval()
}

// Clone returns an independent engine over the same compiled design: the
// immutable program, kind bytes and state lists are shared, the value plane
// is copied. Clone and original can then be stepped concurrently.
func (e *Engine) Clone() *Engine {
	c := *e
	c.vals = append([]uint64(nil), e.vals...)
	c.scratch = make([]uint64, len(e.scratch))
	return &c
}
