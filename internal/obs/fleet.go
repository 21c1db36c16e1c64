package obs

import "sync"

// Fleet aggregates metrics streamed in from many remote sources — one per
// in-flight shard of a distributed campaign — into a single live
// fleet-wide Snapshot. Each source contributes incremental deltas
// (Snapshot.Sub of successive cumulative snapshots, piggybacked on worker
// heartbeats) while it runs, and a final authoritative snapshot when it
// completes.
//
// The aggregation keeps two pools: sealed (the merged final snapshots of
// completed sources — exact) and live (per-source accumulated deltas —
// monitoring-grade). Sealing a source with its final snapshot *replaces*
// its live accumulation, so deltas already merged are never counted twice
// and the fleet view converges to the exact merged total the moment the
// last source seals. Discarding a source (shard lease expired; its work
// will be redone elsewhere) drops its live contribution so abandoned
// partial work never pollutes the converged view.
type Fleet struct {
	mu     sync.Mutex
	sealed *Snapshot
	live   map[string]*Snapshot
}

// NewFleet returns an empty fleet aggregator.
func NewFleet() *Fleet {
	return &Fleet{sealed: NewSnapshot(), live: make(map[string]*Snapshot)}
}

// Observe accumulates one delta from a live source.
func (f *Fleet) Observe(source string, delta *Snapshot) {
	if f == nil || delta == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	acc := f.live[source]
	if acc == nil {
		acc = NewSnapshot()
		f.live[source] = acc
	}
	acc.Merge(delta)
}

// Seal finishes a source: its live delta accumulation is dropped and
// replaced by final, the source's authoritative cumulative snapshot (so
// heartbeat deltas and the final report are never double-counted). A nil
// final keeps the live accumulation instead — the best information
// available when a source completes without reporting metrics.
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

// Discard drops a live source's accumulated deltas without sealing —
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
// accumulation, merged into an independent copy.
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
