package obs

import "sync"

// Fleet aggregates metrics streamed in from many remote sources — one per
// in-flight shard of a distributed campaign — into a single live
// fleet-wide Snapshot. Each source reports its cumulative snapshot so far
// (piggybacked on worker heartbeats) while it runs, and a final
// authoritative snapshot when it completes.
//
// The aggregation keeps two pools: sealed (the merged final snapshots of
// completed sources — exact) and live (each running source's latest
// snapshot — monitoring-grade). A source's every report *replaces* the one
// before it, the final one included, so nothing is counted twice, a
// repeated or lost report changes nothing, and the fleet view converges to
// the exact merged total the moment the last source seals. Discarding a
// source (shard lease expired; its work will be redone elsewhere) drops
// its live contribution so abandoned partial work never pollutes the
// converged view.
type Fleet struct {
	mu     sync.Mutex
	sealed *Snapshot
	live   map[string]*Snapshot
}

// NewFleet returns an empty fleet aggregator.
func NewFleet() *Fleet {
	return &Fleet{sealed: NewSnapshot(), live: make(map[string]*Snapshot)}
}

// Observe makes cur, a copy of which the fleet keeps, the live source's
// contribution to the view.
func (f *Fleet) Observe(source string, cur *Snapshot) {
	if f == nil || cur == nil {
		return
	}
	own := NewSnapshot()
	own.Merge(cur)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live[source] = own
}

// Seal finishes a source: its live snapshot is dropped and replaced by
// final, the source's authoritative cumulative snapshot. A nil final keeps
// the live one instead — the best information available when a source
// completes without reporting metrics.
func (f *Fleet) Seal(source string, final *Snapshot) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if final == nil {
		final = f.live[source]
	}
	f.sealed.Merge(final)
	delete(f.live, source)
}

// Discard drops a live source's snapshot without sealing —
// the shard was abandoned and its injections will be redone (and counted)
// by another lease.
func (f *Fleet) Discard(source string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.live, source)
}

// Snapshot returns the current fleet-wide view: sealed plus every live
// snapshot, merged into an independent copy.
func (f *Fleet) Snapshot() *Snapshot {
	s := NewSnapshot()
	if f == nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s.Merge(f.sealed)
	for _, acc := range f.live {
		s.Merge(acc)
	}
	return s
}
