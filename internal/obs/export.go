package obs

import (
	"expvar"
	"fmt"
	"io"
	"sort"
)

// Exporters: expvar publication (JSON over /debug/vars) and a
// Prometheus-style text dump of a metrics snapshot.

// PublishExpvar registers fn's snapshot under name in the process-wide
// expvar registry (served at /debug/vars). expvar forbids duplicate
// publication, so a second call with the same name is a no-op; the function
// is re-evaluated on every scrape, so publishing live Metrics via
// m.Snapshot keeps the endpoint current while a campaign runs.
func PublishExpvar(name string, fn func() *Snapshot) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return fn() }))
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format under the given metric prefix (e.g. "sfi"). Output order is
// deterministic.
func (s *Snapshot) WritePrometheus(w io.Writer, prefix string) error {
	if prefix == "" {
		prefix = "sfi"
	}
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	counter := func(name string, v uint64) {
		p("# TYPE %s_%s counter\n%s_%s %d\n", prefix, name, prefix, name, v)
	}
	counter("injections_total", s.Injections)
	counter("restores_total", s.Restores)
	counter("cycles_total", s.Cycles)
	counter("stepped_cycles_total", s.SteppedCycles)
	counter("busy_ns_total", s.BusyNs)
	counter("batches_total", s.Batches)

	p("# TYPE %s_outcome_total counter\n", prefix)
	for _, o := range sortedKeys(s.Outcomes) {
		p("%s_outcome_total{outcome=%q} %d\n", prefix, o, s.Outcomes[o])
	}
	labelled := func(name, label string, m map[string]map[string]uint64) {
		if len(m) == 0 {
			return
		}
		p("# TYPE %s_%s counter\n", prefix, name)
		for _, k := range sortedKeys(m) {
			row := m[k]
			for _, o := range sortedKeys(row) {
				p("%s_%s{%s=%q,outcome=%q} %d\n", prefix, name, label, k, o, row[o])
			}
		}
	}
	labelled("unit_outcome_total", "unit", s.ByUnit)
	labelled("latchtype_outcome_total", "type", s.ByType)

	hists := []struct {
		name string
		h    HistSnapshot
	}{
		{"injection_ns", s.InjectionNs},
		{"restore_ns", s.RestoreNs},
		{"propagate_cycles", s.PropagateCycles},
		{"detect_cycles", s.DetectCycles},
		{"lane_occupancy", s.LaneOccupancy},
	}
	for _, h := range hists {
		if err == nil {
			err = WriteHistPrometheus(w, prefix, h.name, h.h)
		}
	}
	return err
}

// WriteHistPrometheus renders one histogram snapshot in the Prometheus
// text format as prefix_name, with cumulative le buckets on the log2
// bucket upper bounds. Exported so components with histograms outside a
// Snapshot (e.g. the distributed coordinator's shard-latency histograms)
// share the exposition path.
func WriteHistPrometheus(w io.Writer, prefix, name string, h HistSnapshot) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# TYPE %s_%s histogram\n", prefix, name)
	cum := uint64(0)
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		_, hi := bucketBounds(i)
		p("%s_%s_bucket{le=\"%d\"} %d\n", prefix, name, hi, cum)
	}
	p("%s_%s_bucket{le=\"+Inf\"} %d\n", prefix, name, h.Count)
	p("%s_%s_sum %d\n", prefix, name, h.Sum)
	p("%s_%s_count %d\n", prefix, name, h.Count)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
