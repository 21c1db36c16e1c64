// Package obs is the campaign observability layer: lock-cheap atomic
// metrics (outcome counters per unit and latch type, latency and cycle
// histograms), structured per-injection trace events, and exporters
// (expvar, Prometheus text). The machine models know nothing of it: one
// injection is measured in one place, core.Runner.record, which folds it
// into an optional *Metrics and offers it to an optional *TraceSink. The
// whole layer is off by default: every Metrics method is nil-safe, so
// uninstrumented runs pay only a nil pointer test on the hot path (what
// it may cost when on is pinned by count, DESIGN.md "Gates").
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
	restoreNs       Hist // checkpoint-restore latency, ns
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

// Injection is everything one classified injection contributes to a
// collector: what the campaign runner measured around it and how it was
// classified.
type Injection struct {
	WallNs    uint64 // wall time charged to the injection, restore to classify
	RestoreNs uint64 // its checkpoint restore (unused for a Lane)
	Cycles    uint64 // cycles observed in its propagation window
	Stepped   uint64 // of those, the cycles the model was clocked through
	Outcome   int    // outcome code
	Unit      string
	LatchType string
	Detected  bool   // some checker saw the fault...
	DetectLat uint64 // ...this many cycles after the flip
	// Lane marks an injection that rode a bit-parallel batched pass: the
	// pass restored once for all its lanes, and ObserveBatch counts that.
	Lane bool
}

// ObserveBatch records one completed bit-parallel batched pass: the fault
// lanes it carried — batch efficiency shows up as the lane-occupancy
// histogram staying near the backend's lane capacity — and the one
// checkpoint restore its lanes shared.
func (m *Metrics) ObserveBatch(lanes, restoreNs uint64) {
	if m == nil {
		return
	}
	m.batches.Add(1)
	m.laneOccupancy.Observe(lanes)
	m.restores.Add(1)
	m.restoreNs.Observe(restoreNs)
}

// Fold counts one classified injection. Stepped is what a backend with an
// early exit (p6lite) really clocked; the difference from Cycles it
// replayed from its fault-free record.
func (m *Metrics) Fold(in Injection) {
	if m == nil {
		return
	}
	m.injections.Add(1)
	m.busyNs.Add(in.WallNs)
	m.injectionNs.Observe(in.WallNs)
	if !in.Lane {
		m.restores.Add(1)
		m.restoreNs.Observe(in.RestoreNs)
	}
	m.cycles.Add(in.Cycles)
	m.propagateCycles.Observe(in.Cycles)
	m.stepped.Add(in.Stepped)
	if in.Detected {
		m.detectCycles.Observe(in.DetectLat)
	}
	inc := func(row []atomic.Uint64) {
		if in.Outcome >= 0 && in.Outcome < len(row) {
			row[in.Outcome].Add(1)
		}
	}
	inc(m.outcomes)
	if in.Unit != "" {
		inc(m.vec(&m.byUnit, in.Unit))
	}
	if in.LatchType != "" {
		inc(m.vec(&m.byType, in.LatchType))
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
	// SteppedCycles is the part of Cycles a model was clocked through: all
	// of them on awan, fewer on p6lite (see Metrics.Fold).
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
