package awan

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// interp is the netlist interpreter the compiled program replaced, kept as
// the oracle the way ecc_test.go keeps the bit-serial SECDED: it walks the
// Netlist's own node structs in a recursively derived dependency order and
// shares no code with Compile, Eval or Step.
type interp struct {
	nl      *Netlist
	program []int
	vals    []uint64
}

func newInterp(nl *Netlist) *interp {
	o := &interp{nl: nl, vals: make([]uint64, len(nl.nodes))}
	done := make([]bool, len(nl.nodes))
	var visit func(id int)
	visit = func(id int) {
		nd := nl.nodes[id]
		if done[id] || nd.kind == KindInput || nd.kind == KindConst || nd.kind == KindLatch {
			return
		}
		done[id] = true
		visit(nd.a)
		switch nd.kind {
		case KindAnd, KindOr, KindXor:
			visit(nd.b)
		case KindMux:
			visit(nd.b)
			visit(nd.s)
		}
		o.program = append(o.program, id)
	}
	for id, nd := range nl.nodes {
		visit(id)
		if nd.kind == KindConst {
			o.vals[id] = broadcast(nd.val)
		}
	}
	return o
}

func (o *interp) eval() {
	vals := o.vals
	for _, id := range o.program {
		nd := &o.nl.nodes[id]
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
		}
	}
}

func (o *interp) step() {
	o.eval()
	latches := o.nl.Latches()
	next := make([]uint64, len(latches))
	for i, id := range latches {
		next[i] = o.vals[o.nl.nodes[id].d]
	}
	for i, id := range latches {
		o.vals[id] = next[i]
	}
}

// tape decodes a byte string into bounded draws; an exhausted tape draws
// zeros, so every byte string is a valid netlist and script.
type tape struct {
	b []byte
	i int
}

func (t *tape) n(n int) int {
	if t.i >= len(t.b) {
		return 0
	}
	v := int(t.b[t.i]) % n
	t.i++
	return v
}

// fault is one scripted disturbance of a latch in one lane: a flip, or a
// force to v (SetLatchLanes, the sticky re-force port).
type fault struct {
	latch, lane int
	force, v    bool
}

// cycleScript is what happens before one Step: the broadcast stimulus and
// the faults applied to the latches.
type cycleScript struct {
	inputs []bool
	faults []fault
}

// genNetlist draws a small netlist (at most 200 nodes) from the tape: a few
// inputs, both constants (shared by every gate that draws them), latches
// declared up front so gates can read them, gates of all five kinds over any
// earlier node, and each latch's next-state input drawn from the whole
// netlist — a later gate (feedback through logic), itself (hold) or another
// latch (shift).
func genNetlist(tp *tape) (nl *Netlist, inputs, latches []int) {
	nl = NewNetlist()
	for i := 1 + tp.n(4); i > 0; i-- {
		inputs = append(inputs, nl.Input(""))
	}
	nl.Const(false)
	nl.Const(true)
	for i := 1 + tp.n(12); i > 0; i-- {
		latches = append(latches, nl.Latch(""))
	}
	for i := tp.n(181); i > 0; i-- {
		n := len(nl.nodes)
		switch a, b, s := tp.n(n), tp.n(n), tp.n(n); tp.n(5) {
		case 0:
			nl.And(a, b)
		case 1:
			nl.Or(a, b)
		case 2:
			nl.Xor(a, b)
		case 3:
			nl.Not(a)
		case 4:
			nl.Mux(a, b, s)
		}
	}
	for _, q := range latches {
		nl.SetD(q, tp.n(len(nl.nodes)))
	}
	return nl, inputs, latches
}

func genScript(tp *tape, inputs, latches int) []cycleScript {
	script := make([]cycleScript, 20+tp.n(12))
	for c := range script {
		for i := 0; i < inputs; i++ {
			script[c].inputs = append(script[c].inputs, tp.n(2) == 1)
		}
		for i := tp.n(3); i > 0; i-- {
			script[c].faults = append(script[c].faults, fault{
				latch: tp.n(latches), lane: tp.n(Lanes), force: tp.n(2) == 1, v: tp.n(2) == 1,
			})
		}
	}
	return script
}

// diffCompiled is the generated differential, the body of both
// TestCompiledMatchesInterpreter and FuzzCompiledNetlist. One netlist and one
// script, decoded from data, run through
//
//   - the interpreter oracle, 64 lanes wide,
//   - the compiled engine, 64 lanes wide, each fault in its own lane,
//   - one compiled engine per faulted lane (and one fault-free) driven
//     through the scalar facade with that lane's faults alone,
//
// and after every cycle every node's word must agree across the three.
// A third of the way in the lane engine is snapshotted and cloned; at the
// end the clone, and then the restored original, replay the rest of the
// script and must retrace it word for word.
func diffCompiled(t *testing.T, data []byte) {
	tp := &tape{b: data}
	nl, inputs, latches := genNetlist(tp)
	script := genScript(tp, len(inputs), len(latches))
	if len(nl.nodes) > 200 {
		t.Fatalf("generator built %d nodes", len(nl.nodes))
	}

	oracle := newInterp(nl)
	lanes, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(lanes.Snapshot()), len(latches)+len(inputs); got != want {
		t.Fatalf("snapshot holds %d words, want latches+inputs = %d", got, want)
	}
	scalar := map[int]*Engine{} // lane -> its scalar twin
	for _, cs := range script {
		for _, f := range cs.faults {
			if scalar[f.lane] == nil && len(scalar) < 4 {
				scalar[f.lane] = MustCompile(nl)
			}
		}
	}
	for lane := 0; lane < Lanes; lane++ { // and one lane no fault touches
		if scalar[lane] == nil {
			scalar[lane] = MustCompile(nl)
			break
		}
	}

	// cycle applies script cycle c to a 64-lane machine: the oracle when e
	// is nil, else the engine.
	cycle := func(e *Engine, c int) {
		for i, v := range script[c].inputs {
			if e == nil {
				oracle.vals[inputs[i]] = broadcast(v)
			} else {
				e.SetInput(inputs[i], v)
			}
		}
		for _, f := range script[c].faults {
			id, mask := latches[f.latch], uint64(1)<<uint(f.lane)
			switch {
			case e != nil && f.force:
				e.SetLatchLanes(id, f.v, mask)
			case e != nil:
				e.FlipLatchLanes(id, mask)
			case !f.force:
				oracle.vals[id] ^= mask
			case f.v:
				oracle.vals[id] |= mask
			default:
				oracle.vals[id] &^= mask
			}
		}
		if e == nil {
			oracle.step()
		} else {
			e.Step()
		}
	}
	plane := func(e *Engine) []uint64 {
		out := make([]uint64, len(nl.nodes))
		for id := range out {
			out[id] = e.Word(id)
		}
		return out
	}

	mid := len(script) / 3
	var snap, oracleSnap []uint64
	var clone *Engine
	trace := make([][]uint64, len(script))
	for c := range script {
		if c == mid {
			snap, oracleSnap, clone = lanes.Snapshot(), append([]uint64(nil), oracle.vals...), lanes.Clone()
		}
		cycle(nil, c)
		cycle(lanes, c)
		trace[c] = plane(lanes)
		if !reflect.DeepEqual(trace[c], oracle.vals) {
			t.Fatalf("cycle %d: compiled 64-lane plane differs from the interpreter's", c)
		}
		for lane, e := range scalar {
			for i, v := range script[c].inputs {
				e.SetInput(inputs[i], v)
			}
			for _, f := range script[c].faults {
				switch {
				case f.lane != lane:
				case f.force:
					e.SetLatch(latches[f.latch], f.v)
				default:
					e.FlipLatch(latches[f.latch])
				}
			}
			e.Step()
			for id := range nl.nodes {
				if want := broadcast(lanes.LaneValue(id, lane)); e.Word(id) != want {
					t.Fatalf("cycle %d node %d: scalar twin of lane %d holds %#x, lane says %#x",
						c, id, lane, e.Word(id), want)
				}
			}
		}
	}

	// The clone never saw cycles mid..end run on the original.
	for c := mid; c < len(script); c++ {
		cycle(clone, c)
		if !reflect.DeepEqual(plane(clone), trace[c]) {
			t.Fatalf("cycle %d: clone taken at cycle %d does not retrace the original", c, mid)
		}
	}
	// Restore leaves the plane an Eval over the snapshot's state, whatever
	// ran in between; then the replay retraces.
	lanes.Restore(snap)
	copy(oracle.vals, oracleSnap)
	oracle.eval()
	if !reflect.DeepEqual(plane(lanes), oracle.vals) {
		t.Fatalf("Restore at cycle %d: plane is not the interpreter's evaluation of the snapshot", mid)
	}
	for c := mid; c < len(script); c++ {
		cycle(lanes, c)
		if !reflect.DeepEqual(plane(lanes), trace[c]) {
			t.Fatalf("cycle %d: engine restored to cycle %d does not retrace", c, mid)
		}
	}
}

// TestCompiledMatchesInterpreter runs the generated differential over seeded
// random tapes.
func TestCompiledMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 0xa3a9))
	for i := 0; i < 300; i++ {
		data := make([]byte, 64+rng.IntN(1200))
		for j := range data {
			data[j] = byte(rng.Uint32())
		}
		diffCompiled(t, data)
	}
}

func FuzzCompiledNetlist(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 11, 180, 0, 1, 2, 4, 5, 6, 7, 0, 8, 9, 3, 3})
	rng := rand.New(rand.NewPCG(1, 2))
	long := make([]byte, 1500)
	for i := range long {
		long[i] = byte(rng.Uint32())
	}
	f.Add(long)
	f.Fuzz(diffCompiled)
}

// TestEngineKeepsNoNetlist is the structural pin on what a built model
// holds: no field of Engine can reach the Netlist it was compiled from, so
// the build-time graph is collectable. (That a snapshot is exactly the
// latches and inputs is checked on every generated netlist, in diffCompiled.)
func TestEngineKeepsNoNetlist(t *testing.T) {
	var reaches func(reflect.Type) bool
	reaches = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			return reaches(ty.Elem())
		case reflect.Struct:
			if ty == reflect.TypeOf(Netlist{}) || ty == reflect.TypeOf(node{}) {
				return true
			}
			for i := 0; i < ty.NumField(); i++ {
				if reaches(ty.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	ty := reflect.TypeOf(Engine{})
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); reaches(f.Type) {
			t.Errorf("Engine.%s (%v) keeps the netlist reachable", f.Name, f.Type)
		}
	}
}

// benchDesign is the awan_lanes workload's design: 16 checked ALUs of 64
// bits, 31,632 gates.
func benchDesign() *Netlist {
	nl := NewNetlist()
	for l := 0; l < 16; l++ {
		nl.BuildCheckedALU(fmt.Sprintf("alu%d", l), 64)
	}
	return nl
}

// BenchmarkEval and BenchmarkEvalInterpreter time one run through the
// program, compiled and interpreted, on the same design (EXPERIMENTS.md
// "Bit-parallel awan lanes" quotes the pair).
func BenchmarkEval(b *testing.B) {
	e := MustCompile(benchDesign())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval()
	}
}

func BenchmarkEvalInterpreter(b *testing.B) {
	o := newInterp(benchDesign())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.eval()
	}
}
