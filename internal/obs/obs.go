// Package obs is the campaign observability layer: lock-cheap atomic
// metrics (outcome counters per unit and latch type, latency and cycle
// histograms), structured per-injection trace events, and exporters
// (expvar, Prometheus text). It sits below every other internal package —
// proc, the engine backends and core all accept an optional *Metrics — and the whole layer
// is off by default: every Metrics method is nil-safe, so uninstrumented
// runs pay only a nil pointer test on the hot path (guarded by the
// overhead benchmark and the make ci overhead gate).
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Metrics collects one worker's (or one process's) campaign counters. All
// mutators are safe for concurrent use and safe on a nil receiver (no-op),
// so instrumentation sites never need an enable flag beyond the pointer
// itself. For contention-free collection give each campaign worker its own
// Metrics and merge the Snapshots.
type Metrics struct {
	outcomeNames []string // index = outcome code; fixed at construction

	injections atomic.Uint64
	restores   atomic.Uint64
	cycles     atomic.Uint64 // cycles observed in propagation windows
	stepped    atomic.Uint64 // of those, the cycles a model was actually clocked through
	busyNs     atomic.Uint64 // wall nanoseconds spent inside RunInjection
	batches    atomic.Uint64 // bit-parallel batched passes completed

	outcomes []atomic.Uint64 // index = outcome code
	byUnit   sync.Map        // unit name -> *[]atomic.Uint64 (len = len(outcomes))
	byType   sync.Map        // latch-type name -> *[]atomic.Uint64

	injectionNs     Hist // whole-injection latency (restore..classify), ns
	restoreNs       Hist // checkpoint-restore latency, ns (timed in proc)
	propagateCycles Hist // cycles per observed propagation window
	detectCycles    Hist // cycles from flip to first checker detection
	laneOccupancy   Hist // injections carried per batched pass
}

// New builds a Metrics collector. outcomeNames maps outcome codes to their
// reporting names (index = code); codes at or above len(outcomeNames) are
// rendered as "outcome<code>".
func New(outcomeNames []string) *Metrics {
	m := &Metrics{
		outcomeNames: append([]string(nil), outcomeNames...),
		outcomes:     make([]atomic.Uint64, len(outcomeNames)),
	}
	return m
}

func (m *Metrics) outcomeName(code int) string {
	if code >= 0 && code < len(m.outcomeNames) && m.outcomeNames[code] != "" {
		return m.outcomeNames[code]
	}
	return fmt.Sprintf("outcome%d", code)
}

// vec returns the per-outcome counter row for key in the given map,
// creating it on first use.
func (m *Metrics) vec(mp *sync.Map, key string) []atomic.Uint64 {
	if v, ok := mp.Load(key); ok {
		return *v.(*[]atomic.Uint64)
	}
	row := make([]atomic.Uint64, len(m.outcomes))
	v, _ := mp.LoadOrStore(key, &row)
	return *v.(*[]atomic.Uint64)
}

// ObserveInjection records one completed injection's wall latency.
func (m *Metrics) ObserveInjection(ns uint64) {
	if m == nil {
		return
	}
	m.injections.Add(1)
	m.busyNs.Add(ns)
	m.injectionNs.Observe(ns)
}

// ObserveRestore records one checkpoint-restore latency.
func (m *Metrics) ObserveRestore(ns uint64) {
	if m == nil {
		return
	}
	m.restores.Add(1)
	m.restoreNs.Observe(ns)
}

// ObserveRun records the cycle count of one observed propagation window.
func (m *Metrics) ObserveRun(cycles uint64) {
	if m == nil {
		return
	}
	m.cycles.Add(cycles)
	m.propagateCycles.Observe(cycles)
}

// ObserveStepped records how many of the observed cycles a backend really
// clocked its model through. The p6lite backend reports it: the difference
// from Cycles is what its early exit against golden replayed from the
// fault-free record instead of stepping.
func (m *Metrics) ObserveStepped(cycles uint64) {
	if m == nil {
		return
	}
	m.stepped.Add(cycles)
}

// ObserveBatch records one completed bit-parallel batched pass and the
// number of fault lanes it carried — batch efficiency shows up as the
// lane-occupancy histogram staying near the backend's lane capacity.
func (m *Metrics) ObserveBatch(lanes uint64) {
	if m == nil {
		return
	}
	m.batches.Add(1)
	m.laneOccupancy.Observe(lanes)
}

// ObserveDetect records a cycles-to-first-detection latency.
func (m *Metrics) ObserveDetect(cycles uint64) {
	if m == nil {
		return
	}
	m.detectCycles.Observe(cycles)
}

// IncOutcome counts one classified injection under its outcome code, unit
// and latch-type.
func (m *Metrics) IncOutcome(code int, unit, latchType string) {
	if m == nil {
		return
	}
	if code >= 0 && code < len(m.outcomes) {
		m.outcomes[code].Add(1)
	}
	if unit != "" {
		row := m.vec(&m.byUnit, unit)
		if code >= 0 && code < len(row) {
			row[code].Add(1)
		}
	}
	if latchType != "" {
		row := m.vec(&m.byType, latchType)
		if code >= 0 && code < len(row) {
			row[code].Add(1)
		}
	}
}

// Snapshot copies the live counters into a plain typed struct. Safe to call
// while workers are still recording (monitoring reads); for exact totals
// snapshot after the campaign has finished.
func (m *Metrics) Snapshot() *Snapshot {
	s := NewSnapshot()
	if m == nil {
		return s
	}
	s.Injections = m.injections.Load()
	s.Restores = m.restores.Load()
	s.Cycles = m.cycles.Load()
	s.SteppedCycles = m.stepped.Load()
	s.BusyNs = m.busyNs.Load()
	s.Batches = m.batches.Load()
	for code := range m.outcomes {
		if n := m.outcomes[code].Load(); n > 0 {
			s.Outcomes[m.outcomeName(code)] = n
		}
	}
	copyVecs := func(mp *sync.Map, dst map[string]map[string]uint64) {
		mp.Range(func(k, v any) bool {
			row := *v.(*[]atomic.Uint64)
			out := make(map[string]uint64)
			for code := range row {
				if n := row[code].Load(); n > 0 {
					out[m.outcomeName(code)] = n
				}
			}
			if len(out) > 0 {
				dst[k.(string)] = out
			}
			return true
		})
	}
	copyVecs(&m.byUnit, s.ByUnit)
	copyVecs(&m.byType, s.ByType)
	s.InjectionNs = m.injectionNs.Snapshot()
	s.RestoreNs = m.restoreNs.Snapshot()
	s.PropagateCycles = m.propagateCycles.Snapshot()
	s.DetectCycles = m.detectCycles.Snapshot()
	s.LaneOccupancy = m.laneOccupancy.Snapshot()
	return s
}

// Snapshot is the plain-value, mergeable view of a Metrics collector — the
// typed struct campaign reports carry and the exporters serialize.
type Snapshot struct {
	Injections uint64 `json:"injections"`
	Restores   uint64 `json:"restores"`
	Cycles     uint64 `json:"cycles"`
	// SteppedCycles is the part of Cycles a model was clocked through
	// (reported by the p6lite backend only; see Metrics.ObserveStepped).
	SteppedCycles uint64 `json:"stepped_cycles"`
	BusyNs        uint64 `json:"busy_ns"`
	Batches       uint64 `json:"batches"`

	Outcomes map[string]uint64            `json:"outcomes"`
	ByUnit   map[string]map[string]uint64 `json:"by_unit,omitempty"`
	ByType   map[string]map[string]uint64 `json:"by_type,omitempty"`

	InjectionNs     HistSnapshot `json:"injection_ns"`
	RestoreNs       HistSnapshot `json:"restore_ns"`
	PropagateCycles HistSnapshot `json:"propagate_cycles"`
	DetectCycles    HistSnapshot `json:"detect_cycles"`
	LaneOccupancy   HistSnapshot `json:"lane_occupancy"`
}

// NewSnapshot returns an empty snapshot with its maps allocated.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Outcomes: make(map[string]uint64),
		ByUnit:   make(map[string]map[string]uint64),
		ByType:   make(map[string]map[string]uint64),
	}
}

// Merge adds another snapshot into this one — the cross-worker aggregation
// primitive.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	s.Injections += o.Injections
	s.Restores += o.Restores
	s.Cycles += o.Cycles
	s.SteppedCycles += o.SteppedCycles
	s.BusyNs += o.BusyNs
	s.Batches += o.Batches
	mergeCounts := func(dst, src map[string]uint64) map[string]uint64 {
		if len(src) == 0 {
			return dst
		}
		if dst == nil {
			dst = make(map[string]uint64, len(src))
		}
		for k, v := range src {
			dst[k] += v
		}
		return dst
	}
	s.Outcomes = mergeCounts(s.Outcomes, o.Outcomes)
	for k, src := range o.ByUnit {
		if s.ByUnit == nil {
			s.ByUnit = make(map[string]map[string]uint64)
		}
		s.ByUnit[k] = mergeCounts(s.ByUnit[k], src)
	}
	for k, src := range o.ByType {
		if s.ByType == nil {
			s.ByType = make(map[string]map[string]uint64)
		}
		s.ByType[k] = mergeCounts(s.ByType[k], src)
	}
	s.InjectionNs.Merge(o.InjectionNs)
	s.RestoreNs.Merge(o.RestoreNs)
	s.PropagateCycles.Merge(o.PropagateCycles)
	s.DetectCycles.Merge(o.DetectCycles)
	s.LaneOccupancy.Merge(o.LaneOccupancy)
}

// Clone returns an independent deep copy of the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	c := NewSnapshot()
	c.Merge(s)
	return c
}

// Sub returns this snapshot minus prev, an earlier snapshot of the same
// (monotonically growing) collector — the wire delta a distributed worker
// piggybacks on heartbeats. Accumulating every delta from one collector
// reproduces its cumulative snapshot exactly: for any counter,
// sum(delta_i) = final - initial. prev may be nil (the delta is then the
// whole snapshot). Counters that shrank (mismatched snapshots) clamp to
// zero; zero-valued map entries are omitted from the delta.
func (s *Snapshot) Sub(prev *Snapshot) *Snapshot {
	d := NewSnapshot()
	if s == nil {
		return d
	}
	if prev == nil {
		prev = NewSnapshot()
	}
	d.Injections = sub64(s.Injections, prev.Injections)
	d.Restores = sub64(s.Restores, prev.Restores)
	d.Cycles = sub64(s.Cycles, prev.Cycles)
	d.SteppedCycles = sub64(s.SteppedCycles, prev.SteppedCycles)
	d.BusyNs = sub64(s.BusyNs, prev.BusyNs)
	d.Batches = sub64(s.Batches, prev.Batches)
	subCounts := func(cur, old map[string]uint64) map[string]uint64 {
		out := make(map[string]uint64)
		for k, v := range cur {
			if dv := sub64(v, old[k]); dv > 0 {
				out[k] = dv
			}
		}
		return out
	}
	d.Outcomes = subCounts(s.Outcomes, prev.Outcomes)
	subVecs := func(cur, old map[string]map[string]uint64, dst map[string]map[string]uint64) {
		for k, row := range cur {
			if drow := subCounts(row, old[k]); len(drow) > 0 {
				dst[k] = drow
			}
		}
	}
	subVecs(s.ByUnit, prev.ByUnit, d.ByUnit)
	subVecs(s.ByType, prev.ByType, d.ByType)
	d.InjectionNs = s.InjectionNs.Sub(prev.InjectionNs)
	d.RestoreNs = s.RestoreNs.Sub(prev.RestoreNs)
	d.PropagateCycles = s.PropagateCycles.Sub(prev.PropagateCycles)
	d.DetectCycles = s.DetectCycles.Sub(prev.DetectCycles)
	d.LaneOccupancy = s.LaneOccupancy.Sub(prev.LaneOccupancy)
	return d
}

// Empty reports whether the snapshot carries no observations at all (the
// delta of an idle interval).
func (s *Snapshot) Empty() bool {
	return s == nil || (s.Injections == 0 && s.Restores == 0 && s.Cycles == 0 &&
		s.SteppedCycles == 0 && s.BusyNs == 0 && s.Batches == 0 &&
		len(s.Outcomes) == 0 && len(s.ByUnit) == 0 && len(s.ByType) == 0 &&
		s.InjectionNs.Count == 0 && s.RestoreNs.Count == 0 &&
		s.PropagateCycles.Count == 0 && s.DetectCycles.Count == 0 &&
		s.LaneOccupancy.Count == 0)
}
