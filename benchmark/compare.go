package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// verdict compares candidate runs b with baseline runs a of one gated
// metric: worse when b's median is worse than a's by more than the bound,
// unresolved when either side's own spread already exceeds the bound.
func verdict(d metricDef, a, b []float64) (ratio, widest float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		ratio = mb / ma
	}
	widest = max(spread(a), spread(b))
	worsening := (mb - ma) / ma
	if d.Better == "higher" {
		worsening = (ma - mb) / ma
	}
	switch {
	case widest > d.Bound:
		v = verdictUnresolved
	case worsening > d.Bound:
		v = verdictWorse
	default:
		v = verdictOK
	}
	return ratio, widest, v
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric of one workload over a set's runs.
func (s *resultSet) values(workload, metric string, trace bool) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// failedFrac is a set's ops_failed_frac for one workload.
func (s *resultSet) failedFrac(workload string) (frac float64, runs int) {
	attempted, failed := 0, 0
	for _, r := range s.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
			runs++
		}
	}
	if attempted == 0 {
		return 0, runs
	}
	return float64(failed) / float64(attempted), runs
}

// compareSets prints one row per (workload, metric) of set B against set
// A and returns 1 if any gated metric is worse.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]*resultSet
	for i, path := range []string{pathA, pathB} {
		s, err := readSet(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		sets[i] = s
	}
	return writeComparison(sets[0], sets[1], stdout)
}

func writeComparison(a, b *resultSet, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tB/A (base A)\tspread\tbound\tverdict")
	worse := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(w.name, d.Name, false), b.values(w.name, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, widest, v := verdict(d, va, vb)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%.4f\t%.2f\t%s\n",
				w.name, d.Name, d.Unit, median(va), median(vb), ratio, widest, d.Bound, v)
		}
		// Failures are gated exactly: any op that failed in B and not in A.
		fa, na := a.failedFrac(w.name)
		fb, nb := b.failedFrac(w.name)
		if na > 0 && nb > 0 {
			v := verdictOK
			if fb > fa {
				v = verdictWorse
				worse++
			}
			fmt.Fprintf(tw, "%s\tops_failed_frac\tratio\t%.6g\t%.6g\t-\t-\t0\t%s\n", w.name, fa, fb, v)
		}
		// Per-layer metrics carry no bound; the exact counts must repeat.
		for _, d := range perLayer {
			va, vb := a.values(w.name, d.Name, true), b.values(w.name, d.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			ratio, v := "-", "-"
			if ma != 0 {
				ratio = fmt.Sprintf("%.4f", mb/ma)
			}
			if d.Exact {
				v = "same"
				if ma != mb {
					v = "differs"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\t-\t-\t%s\n", w.name, d.Name, d.Unit, ma, mb, ratio, v)
		}
	}
	tw.Flush()
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}
