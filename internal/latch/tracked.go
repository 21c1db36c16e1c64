package latch

import (
	"fmt"
	"iter"
	"sort"
)

// Tracked is a handle to a latch group whose every model access can be
// recorded: Get and Set are its only ways in, both are whole-word, and while
// a recording runs (DB.Record) each one is appended to the access log of the
// word it touches. The model holds no other handle to such a group, so "every
// read is in the log" holds by construction, the way "nothing reads this
// latch" does for RegisterIdle. The hook sits on this handle alone: the generic
// Reg accessors carry no recording branch. Its mask is the read set declared
// at registration: Get returns only those bits, so a flip of any other bit
// is never read, whatever the log says of its word, and Set stores only
// those bits, zero in the rest.
type Tracked struct {
	db     *DB
	lo, hi int    // storage word indices of entry 0 and past the last entry
	mask   uint64 // the read set of every entry
	word   int    // log index of entry 0
}

// RegisterTracked adds a latch group of entries × width bits of which the
// model reads the bits read of every entry (AllBits: all of them), and
// returns its tracked handle. Tracked words are numbered densely in
// registration order, so an access log recorded on one database indexes any
// other built from the same registrations.
func (db *DB) RegisterTracked(unit string, kind Type, name string, entries, width int, read uint64) Tracked {
	a := db.RegisterArray(unit, kind, name, entries, width)
	a.g.Tracked = true
	a.g.readMask = read & a.mask
	a.g.trackOff = db.tracked
	db.tracked += entries
	return Tracked{db: db, lo: a.off, hi: a.off + entries, mask: a.g.readMask, word: a.g.trackOff}
}

// Get reads entry i's bits in the read set. It is exactly small enough to
// inline into the model's read sites: the recording branch is one
// out-of-line call, and the entry index is range-checked by slicing the
// storage to the group.
func (t Tracked) Get(i int) uint64 {
	if t.db.rec.on {
		t.noteUse(i)
	}
	return t.db.Cells[t.lo:t.hi][i] & t.mask
}

// Set writes entry i: a definition, after which the word holds v's bits in
// the read set, and zero in the rest, whatever it held before.
func (t Tracked) Set(i int, v uint64) {
	if t.db.rec.on {
		t.note(i, defEvent)
	}
	_ = t.db.Cells[t.lo:t.hi][i]
	Reg{db: t.db, w: t.lo + i, mask: t.mask}.Set(v)
}

// noteUse is note(i, useEvent), an argument shorter: what Get can afford.
//
//go:noinline
func (t Tracked) noteUse(i int) { t.note(i, useEvent) }

// note logs an access to entry i with the recording that is running.
func (t Tracked) note(i int, kind uint32) {
	r := &t.db.rec
	rel := *r.clock - r.first
	if rel >= 1<<31 {
		panic(fmt.Sprintf("latch: access log longer than %d cycles", 1<<31))
	}
	w := &r.words[t.word : t.word+t.hi-t.lo][i]
	*w = append(*w, uint32(rel)<<1|kind)
}

// Len returns the number of entries.
func (t Tracked) Len() int { return t.hi - t.lo }

// Never is the cycle of an access that is not in the log.
const Never = ^uint64(0)

// An event is the access's cycle, relative to the start of the recording,
// shifted left once, with the low bit set for a definition.
const (
	useEvent = 0
	defEvent = 1
)

// recording is an access log being taken: one growing slice per tracked
// word, flattened by StopRecording.
type recording struct {
	on    bool // a flag, not a nil test on clock: Get's inlining budget has no node to spare
	clock *uint64
	first uint64
	words [][]uint32
}

// Record starts an access log: until StopRecording, every Get and Set
// through a Tracked handle is logged under its word with the value *clock
// has at the time — the model's cycle counter.
func (db *DB) Record(clock *uint64) {
	db.rec = recording{on: true, clock: clock, first: *clock, words: make([][]uint32, db.tracked)}
}

// StopRecording ends the recording and returns its log.
func (db *DB) StopRecording() *AccessLog {
	r := db.rec
	db.rec = recording{}
	l := &AccessLog{first: r.first, off: make([]uint32, len(r.words)+1)}
	n := 0
	for _, evs := range r.words {
		n += len(evs)
	}
	l.events = make([]uint32, 0, n)
	for w, evs := range r.words {
		l.events = append(l.events, evs...)
		l.off[w+1] = uint32(len(l.events))
	}
	return l
}

// AccessLog is the record of one fault-free execution's accesses to the
// tracked groups: per storage word, in order, the cycles at which the model
// read it and the cycles at which it overwrote it. Immutable, so models
// stepping the same trajectory share one.
type AccessLog struct {
	first  uint64   // the clock when the recording started
	off    []uint32 // events[off[w]:off[w+1]] are tracked word w's
	events []uint32
}

// word returns the logged events of entry e of tracked group g.
func (l *AccessLog) word(g *Group, e int) []uint32 {
	w := g.trackOff + e
	return l.events[l.off[w]:l.off[w+1]]
}

// LiveAt returns the cycle at which a flip, made after cycle after was
// clocked, of entry e of tracked group g first reaches the model: the cycle
// of the word's first logged access after that one if it is a read, and Never
// if it is a definition — the flip is overwritten unseen — or if the log ends
// first.
func (l *AccessLog) LiveAt(g *Group, e int, after uint64) uint64 {
	evs := l.word(g, e)
	if after >= l.first {
		rel := after - l.first
		evs = evs[sort.Search(len(evs), func(i int) bool { return uint64(evs[i]>>1) > rel }):]
	}
	if len(evs) == 0 || evs[0]&1 == defEvent {
		return Never
	}
	return l.first + uint64(evs[0]>>1)
}

// Accesses yields the logged accesses of entry e of tracked group g in
// order: the cycle, and whether the access was a definition.
func (l *AccessLog) Accesses(g *Group, e int) iter.Seq2[uint64, bool] {
	return func(yield func(cycle uint64, def bool) bool) {
		for _, ev := range l.word(g, e) {
			if !yield(l.first+uint64(ev>>1), ev&1 == defEvent) {
				return
			}
		}
	}
}
