// Package latch implements the latch database underlying the core model:
// every micro-architectural state bit is registered here as part of a named
// latch group with a unit and a latch type (the scan-chain classes of the
// paper's Figure 5). The SFI framework flips bits through this database, so
// any injected fault propagates through the model's real next-state logic.
//
// Storage is word-aligned per entry for speed; logical bit numbering is
// dense (one index per real latch bit) so statistical sampling sees exactly
// the physical latch population.
package latch

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"

	"sfi/internal/dirty"
)

// Type is the scan-chain latch class from the paper: FUNC and REGFILE
// latches are read-write during normal operation; GPTR and MODE latches are
// scan-only and hold their values for the whole run.
type Type int

// Latch types (paper Figure 5).
const (
	Func    Type = iota + 1 // pipeline / control latches
	RegFile                 // register-file latches
	GPTR                    // general-purpose test register (scan-only)
	Mode                    // configuration mode latches (scan-only)
)

func (t Type) String() string {
	switch t {
	case Func:
		return "FUNC"
	case RegFile:
		return "REGFILE"
	case GPTR:
		return "GPTR"
	case Mode:
		return "MODE"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Types lists all latch types in Figure 5 order.
var Types = []Type{Mode, GPTR, RegFile, Func}

// Group is a named block of latches: Entries entries of Width bits each
// (a scalar register is one entry). All bits of a group share a unit and a
// latch type.
type Group struct {
	Name    string
	Unit    string
	Kind    Type
	Entries int
	Width   int

	// Idle marks a group registered with RegisterIdle: the model holds no
	// handle to it, so no model code can read or write its bits.
	Idle bool
	// Tracked marks a group registered with RegisterTracked: the model's one
	// handle to it can log every read and overwrite of each of its words.
	Tracked bool
	// Scan marks a group registered with RegisterScan or RegisterScanArray:
	// the model's handles to it are read-only, and its contents change only
	// through DB.LoadScan, a flip or a restore.
	Scan bool

	// The read set: bits readMask of entries [0, readEntries) are what the
	// group's handles can return, fixed when the group is registered. Every
	// other bit is never read.
	readEntries int
	readMask    uint64

	logOff   int // dense logical bit offset of entry 0 bit 0
	physOff  int // word index of entry 0
	trackOff int // access-log index of entry 0 (tracked groups)
}

// Bits returns the number of latch bits in the group.
func (g *Group) Bits() int { return g.Entries * g.Width }

// ReadMask returns the bits of entry e that the group's handles can return:
// none for an idle group, those declared at registration for a
// scan or tracked one, every bit for any other.
func (g *Group) ReadMask(e int) uint64 {
	if e < g.readEntries {
		return g.readMask
	}
	return 0
}

// NeverRead reports whether no model code can read bit b of entry e: the bit
// is outside the group's read set. What such a bit holds decides nothing
// outside the never-read bits, so a flip there commutes with any number of
// clocked cycles.
func (g *Group) NeverRead(e, b int) bool { return g.ReadMask(e)>>uint(b)&1 == 0 }

// Offset returns the group's dense logical bit offset — the logical index
// of entry 0 bit 0, so the group spans logical bits [Offset, Offset+Bits).
// Stratified sample plans use it to enumerate a stratum's population.
func (g *Group) Offset() int { return g.logOff }

// DB is the latch database. Register groups during model construction, then
// Freeze; injection and snapshotting operate on the frozen database.
//
// The storage words are a dirty.Store: every latch write marks its block of
// 8 words (one cache line), and the store's baseline, snapshot, restore and
// delta methods are the database's — see DESIGN.md "Checkpoint restore" —
// those that rewrite contents wrapped to move the scan generation (scan.go).
type DB struct {
	dirty.Store[uint64]
	groups []*Group
	byName map[string]*Group
	total  int
	frozen bool

	tracked int       // words in tracked groups: the access log's index space
	rec     recording // the access log being taken, if one is
	gen     uint64    // the scan generation (ScanGen)
}

// blockShift: the storage words are dirty-tracked 8 (one cache line) to a
// block.
const blockShift = 3

// NewDB returns an empty latch database. Its scan generation starts at 1, so
// a view derived at the zero generation is never current.
func NewDB() *DB {
	return &DB{Store: dirty.New[uint64](0, blockShift), byName: make(map[string]*Group), gen: 1}
}

// AllBits declares a read set of every bit of an entry (RegisterScan,
// RegisterTracked): the set is clipped to the group's width.
const AllBits = ^uint64(0)

func mask(width int) uint64 {
	if width == 64 {
		return ^uint64(0)
	}
	return (1 << uint(width)) - 1
}

// Register adds a scalar latch group of width bits and returns its handle.
func (db *DB) Register(unit string, kind Type, name string, width int) Reg {
	a := db.RegisterArray(unit, kind, name, 1, width)
	return a.Entry(0)
}

// RegisterArray adds a latch group of entries × width bits and returns its
// handle. Width must be in [1,64].
func (db *DB) RegisterArray(unit string, kind Type, name string, entries, width int) Array {
	if db.frozen {
		panic("latch: register after Freeze")
	}
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("latch: width %d out of range [1,64] for %s", width, name))
	}
	if entries < 1 {
		panic(fmt.Sprintf("latch: entries %d < 1 for %s", entries, name))
	}
	if _, dup := db.byName[name]; dup {
		panic(fmt.Sprintf("latch: duplicate group %q", name))
	}
	g := &Group{
		Name:        name,
		Unit:        unit,
		Kind:        kind,
		Entries:     entries,
		Width:       width,
		readEntries: entries,
		readMask:    mask(width),
		logOff:      db.total,
		physOff:     len(db.Cells),
	}
	db.groups = append(db.groups, g)
	db.byName[name] = g
	db.total += entries * width
	db.Cells = append(db.Cells, make([]uint64, entries)...)
	return Array{db: db, g: g, off: g.physOff, n: entries, mask: mask(width)}
}

// RegisterIdle adds a latch group that is architecturally present but that
// the model never reads or writes: cold structures, and state hardware
// updates but no outcome can depend on (performance counters, capture
// buffers, debug traces), which the model does not simulate. It returns no
// handle, so "nothing reads this latch" is enforced by the type system
// rather than by convention: the bits are still part of the population
// (sampled, flipped, snapshotted), but a flip confined to idle groups cannot
// change what the model does (see Group.NeverRead).
func (db *DB) RegisterIdle(unit string, kind Type, name string, entries, width int) {
	g := db.RegisterArray(unit, kind, name, entries, width).g
	g.Idle, g.readEntries = true, 0
}

// Freeze finalizes registration. Further Register calls panic.
func (db *DB) Freeze() { db.frozen = true }

// TotalBits returns the number of latch bits in the database.
func (db *DB) TotalBits() int { return db.total }

// Groups returns the registered groups in registration order. The caller
// must not mutate the returned slice.
func (db *DB) Groups() []*Group { return db.groups }

// GroupByName looks a group up by name.
func (db *DB) GroupByName(name string) (*Group, bool) {
	g, ok := db.byName[name]
	return g, ok
}

// Locate maps a logical bit index to its group, entry and bit-within-entry.
func (db *DB) Locate(bit int) (g *Group, entry, bitInEntry int) {
	if bit < 0 || bit >= db.total {
		panic(fmt.Sprintf("latch: bit %d out of range [0,%d)", bit, db.total))
	}
	// Binary search over group logical offsets.
	i := sort.Search(len(db.groups), func(i int) bool {
		return db.groups[i].logOff > bit
	}) - 1
	g = db.groups[i]
	rel := bit - g.logOff
	return g, rel / g.Width, rel % g.Width
}

// BitRef is a resolved handle to one logical latch bit: Locate's search is
// paid once, when the handle is made, so a caller that returns to the same
// bit every cycle (a sticky fault's re-force) touches only the storage
// word. Like Reg it holds the word's index, never a copy of its value.
type BitRef struct {
	db   *DB
	w    int    // storage word index
	mask uint64 // the single bit within the word
}

// BitRef resolves a logical bit index to a handle.
func (db *DB) BitRef(bit int) BitRef {
	g, e, b := db.Locate(bit)
	return BitRef{db: db, w: g.physOff + e, mask: 1 << uint(b)}
}

// Get reads the bit.
func (r BitRef) Get() bool { return r.db.Cells[r.w]&r.mask != 0 }

// Set writes the bit. Rewriting the held value is a no-op (see Reg.Set).
func (r BitRef) Set(v bool) {
	if r.Get() != v {
		r.Flip()
	}
}

// Flip inverts the bit and returns the new value. It moves the scan
// generation: the bit may be scan-only.
func (r BitRef) Flip() bool {
	r.db.Cells[r.w] ^= r.mask
	r.db.Touch(r.w >> blockShift)
	r.db.gen++
	return r.Get()
}

// Peek reads a logical latch bit.
func (db *DB) Peek(bit int) bool { return db.BitRef(bit).Get() }

// Poke writes a logical latch bit.
func (db *DB) Poke(bit int, v bool) { db.BitRef(bit).Set(v) }

// Flip inverts a logical latch bit and returns the new value. This is the
// injection primitive ("flip chosen latch bits" in the paper's Figure 1).
func (db *DB) Flip(bit int) bool { return db.BitRef(bit).Flip() }

// Filter selects latch groups (nil selects everything).
type Filter func(g *Group) bool

// ByUnit returns a Filter selecting one unit.
func ByUnit(unit string) Filter {
	return func(g *Group) bool { return g.Unit == unit }
}

// ByType returns a Filter selecting one latch type.
func ByType(t Type) Filter {
	return func(g *Group) bool { return g.Kind == t }
}

// CountBits returns the number of latch bits matching the filter.
func (db *DB) CountBits(f Filter) int {
	n := 0
	for _, g := range db.groups {
		if f == nil || f(g) {
			n += g.Bits()
		}
	}
	return n
}

// Units returns the distinct unit names in first-registration order.
func (db *DB) Units() []string {
	seen := make(map[string]bool)
	var units []string
	for _, g := range db.groups {
		if !seen[g.Unit] {
			seen[g.Unit] = true
			units = append(units, g.Unit)
		}
	}
	return units
}

// SampleBits draws n distinct logical bit indices uniformly from the latch
// bits matching the filter (the paper's random latch selection). It panics
// if fewer than n bits match.
func (db *DB) SampleBits(rng *rand.Rand, n int, f Filter) []int {
	// Collect matching logical ranges.
	type span struct{ off, n int }
	var spans []span
	total := 0
	for _, g := range db.groups {
		if f == nil || f(g) {
			spans = append(spans, span{g.logOff, g.Bits()})
			total += g.Bits()
		}
	}
	if n > total {
		panic(fmt.Sprintf("latch: sample of %d from population of %d", n, total))
	}
	// Floyd's algorithm over the virtual concatenation of spans.
	pick := func(k int) int { // k-th bit of the filtered population
		for _, s := range spans {
			if k < s.n {
				return s.off + k
			}
			k -= s.n
		}
		panic("unreachable")
	}
	chosen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for i := total - n; i < total; i++ {
		k := rng.IntN(i + 1)
		b := pick(k)
		if chosen[b] {
			b = pick(i)
		}
		chosen[b] = true
		out = append(out, b)
	}
	return out
}

// Reg is a handle to one entry of a latch group; all model state access goes
// through Reg so that injected bit flips are visible to the logic. Every
// access reads or writes the live storage word; only the word's index and
// the width mask are resolved ahead of time, when the handle is made. (An
// index rather than a pointer: registration re-allocates the storage slice
// until Freeze.)
type Reg struct {
	db   *DB
	w    int    // storage word index
	mask uint64 // low Width bits
}

// Get reads the latch value.
func (r Reg) Get() uint64 { return r.db.Cells[r.w] & r.mask }

// Set writes the latch value (extra high bits are dropped). Rewriting the
// value already held is a no-op: most latch writes each cycle are holds
// (idle FSMs, regenerated parity), and skipping them keeps both the store
// and the dirty-tracking mark off the hot path.
func (r Reg) Set(v uint64) {
	v &= r.mask
	p := &r.db.Cells[r.w]
	if *p == v {
		return
	}
	*p = v
	r.db.Touch(r.w >> blockShift)
}

// GetBit reads one bit of the latch.
func (r Reg) GetBit(i int) bool { return r.Get()&(1<<uint(i)) != 0 }

// SetBit writes one bit of the latch.
func (r Reg) SetBit(i int, v bool) {
	w := r.Get()
	if v {
		w |= 1 << uint(i)
	} else {
		w &^= 1 << uint(i)
	}
	r.Set(w)
}

// Field reads the width-bit field starting at bit lo.
func (r Reg) Field(lo, width int) uint64 {
	return (r.Get() >> uint(lo)) & mask(width)
}

// SetField writes the width-bit field starting at bit lo.
func (r Reg) SetField(lo, width int, v uint64) {
	m := mask(width) << uint(lo)
	r.Set(r.Get()&^m | (v << uint(lo) & m))
}

// Width returns the latch width in bits.
func (r Reg) Width() int { return bits.Len64(r.mask) }

// Array is a handle to a multi-entry latch group, with the group's storage
// offset, entry count and width mask resolved at registration.
type Array struct {
	db   *DB
	g    *Group
	off  int // storage word index of entry 0
	n    int
	mask uint64
}

// Entry returns the handle for entry i.
func (a Array) Entry(i int) Reg {
	if uint(i) >= uint(a.n) {
		a.badEntry(i)
	}
	return Reg{db: a.db, w: a.off + i, mask: a.mask}
}

// badEntry formats Entry's out-of-range panic out of line, so Entry itself
// stays small enough to inline.
//
//go:noinline
func (a Array) badEntry(i int) {
	panic(fmt.Sprintf("latch: entry %d out of range [0,%d) in %s", i, a.n, a.g.Name))
}

// Len returns the number of entries.
func (a Array) Len() int { return a.n }

// Group returns the group this handle belongs to.
func (a Array) Group() *Group { return a.g }
