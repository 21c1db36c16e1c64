package latch

import (
	"fmt"
	"math/bits"
)

// Counter is a handle to a latch the model uses as a countdown, a count-up
// watchdog or a round-robin cursor, and reads only through threshold-aware
// ticks: Down, Up and Wrap answer whether the count reached its threshold
// (Wrap, which entry the cursor is at), Parity gives the parity a capture
// register keeps over it, and there is no Get. A tick that moves the value
// by one is a unit tick, which DB.Writes does not count and the database
// remembers instead, until DB.ClearTicks; a load, a reset and a wrap are
// counted writes. So a cycle that leaves DB.Writes where it was wrote
// nothing but unit ticks, and a cycle that repeats it finds every counter
// answering as before until one reaches its threshold: what a bulk advance
// relies on (Counter.Room).
type Counter struct {
	r   Reg
	bit uint64 // the counter's mark in DB.down and DB.up
}

// RegisterCounter adds a one-entry latch group of width bits read only
// through a Counter, and returns the handle.
func (db *DB) RegisterCounter(unit string, kind Type, name string, width int) Counter {
	a := db.RegisterArray(unit, kind, name, 1, width)
	a.g.Counter = true
	if db.counters == 64 {
		panic(fmt.Sprintf("latch: counter %s past the 64 a database marks", name))
	}
	db.counters++
	return Counter{a.Entry(0), 1 << (db.counters - 1)}
}

// Load writes v, a counted write.
func (c Counter) Load(v uint64) { c.r.Set(v) }

// Down ticks a countdown: it takes one off a non-zero count and reports
// true, and at zero reports false and leaves the count there.
func (c Counter) Down() bool {
	v := c.r.Get()
	if v == 0 {
		return false
	}
	c.tick(v - 1)
	c.r.db.down |= c.bit
	return true
}

// Up ticks a count towards limit: it adds one and reports true while the
// result stays below limit, and otherwise resets the count to zero and
// reports false.
func (c Counter) Up(limit uint64) bool {
	v := c.r.Get() + 1
	switch {
	case v >= limit:
		c.r.Set(0)
		return false
	case v > c.r.mask:
		c.r.Set(v) // past the width: Set wraps it to zero
	default:
		c.tick(v)
		c.r.db.up |= c.bit
	}
	return true
}

// Wrap advances a cursor over [0, n) and returns the entry it was at: one on
// from v is a unit tick, from the last entry it wraps to zero, and a cursor
// past the last entry (corrupted) is taken modulo n first.
func (c Counter) Wrap(n uint64) uint64 {
	v := c.r.Get()
	if v+1 < n && v < c.r.mask {
		c.tick(v + 1)
		c.r.db.up |= c.bit
		return v
	}
	v %= n
	c.r.Set((v + 1) % n)
	return v
}

// Parity returns the parity of the count.
func (c Counter) Parity() uint64 { return uint64(bits.OnesCount64(c.r.Get()) & 1) }

// tick stores v, one from the count held and within the width, as an
// uncounted write.
func (c Counter) tick(v uint64) {
	c.r.db.Cells[c.r.w] = v
	c.r.db.Touch(c.r.w >> blockShift)
}

// ClearTicks forgets which counters took a unit tick: Room and Repeat
// answer for the ticks taken after it.
func (db *DB) ClearTicks() { db.down, db.up = 0, 0 }

// Room returns how many more cycles could each take the unit tick the
// counter took since DB.ClearTicks, bound being the Up limit or the Wrap
// entry count of a counter that ticks up: as many as the count for a
// countdown, up to bound-1 for a count up. A counter that took no unit tick
// has unbounded room: a cycle that wrote no counter but by unit ticks left
// its count as it was, and the next one gets the same answer from it. Room
// assumes one tick a cycle, the model's use: each counter is ticked in one
// place.
func (c Counter) Room(bound uint64) uint64 {
	now := c.r.Get()
	switch {
	case c.r.db.down&c.bit != 0:
		return now
	case c.r.db.up&c.bit != 0:
		if bound > c.r.mask {
			bound = c.r.mask + 1 // a tick never leaves the width
		}
		if now+1 < bound {
			return bound - 1 - now
		}
		return 0
	}
	return ^uint64(0)
}

// Repeat applies k more of the unit tick the counter took since
// DB.ClearTicks; k must be within Room.
func (c Counter) Repeat(k uint64) {
	switch {
	case k == 0:
	case c.r.db.down&c.bit != 0:
		c.tick(c.r.Get() - k)
	case c.r.db.up&c.bit != 0:
		c.tick(c.r.Get() + k)
	}
}
