package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sfi/internal/core"
	"sfi/internal/dist"
	"sfi/internal/obs"
)

// checkExposition enforces the grouping rules of the Prometheus text
// format: every line of a metric family — its HELP, its TYPE and its
// samples — is one contiguous group, and a family's TYPE line comes before
// its first sample. A histogram's _bucket, _sum and _count samples belong to
// the family its TYPE line names.
func checkExposition(text string) error {
	types := make(map[string]string) // family → declared type
	sampled := make(map[string]bool) // families with a sample already written
	closed := make(map[string]bool)  // families some later family followed
	cur := ""
	enter := func(family string, line int) error {
		if family == cur {
			return nil
		}
		if closed[family] {
			return fmt.Errorf("line %d: family %s resumes after another family's lines", line, family)
		}
		if cur != "" {
			closed[cur] = true
		}
		cur = family
		return nil
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		if f := strings.Fields(line); f[0] == "#" {
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				continue
			}
			if err := enter(f[2], n); err != nil {
				return err
			}
			if f[1] == "TYPE" {
				if sampled[f[2]] {
					return fmt.Errorf("line %d: TYPE of %s follows one of its samples", n, f[2])
				}
				if len(f) < 4 {
					return fmt.Errorf("line %d: TYPE line without a type: %q", n, line)
				}
				types[f[2]] = f[3]
			}
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		family := name
		if _, ok := types[family]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
					family = base
				}
			}
		}
		if _, ok := types[family]; !ok {
			return fmt.Errorf("line %d: sample %s before its family's TYPE line", n, name)
		}
		if err := enter(family, n); err != nil {
			return err
		}
		sampled[family] = true
	}
	return sc.Err()
}

func TestCheckExpositionRejectsMisgroupedFamilies(t *testing.T) {
	for name, text := range map[string]string{
		"interleaved": "# TYPE a gauge\n# TYPE b gauge\na 1\nb 2\n",
		"resumed":     "# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\na 2\n",
		"untyped":     "a 1\n# TYPE a gauge\n",
		"late type":   "# TYPE a gauge\na 1\n# TYPE a gauge\n",
	} {
		if checkExposition(text) == nil {
			t.Errorf("%s exposition accepted:\n%s", name, text)
		}
	}
	ok := "# HELP a A.\n# TYPE a gauge\na{x=\"1\"} 1\na{x=\"2\"} 2\n" +
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 3\nh_count 1\n"
	if err := checkExposition(ok); err != nil {
		t.Errorf("well-formed exposition refused: %v", err)
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsExpositionGrouped scrapes /metrics on a server that has served
// a tenant's campaign (so the per-tenant families have samples) and on a
// coordinator whose adaptive campaign a worker ran to the end, and holds
// both to the text format's grouping rules.
func TestMetricsExpositionGrouped(t *testing.T) {
	s := newTestServer(t, t.TempDir(), nil)
	c, err := s.Submit(tinySpec("acme", 3, 40, 20))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, c.ID, StateDone, 30*time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	text := scrape(t, ts.URL)
	if !strings.Contains(text, `sfi_server_tenant_served_total{tenant="acme"}`) {
		t.Fatalf("server exposition has no per-tenant sample:\n%s", text)
	}
	if err := checkExposition(text); err != nil {
		t.Errorf("server /metrics: %v\n%s", err, text)
	}

	spec := tinySpec("", 5, 40, 20).Campaign
	spec.Stop = core.StopConfig{TargetMargin: 0.9, MinPerClass: 1}
	coord, err := dist.NewCoordinator(dist.CoordConfig{Campaign: spec, ShardSize: 20, Tracer: obs.NewTracer(5)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.RunWorker(ctx, dist.WorkerConfig{ID: "w"}); err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(coord.Handler())
	defer cs.Close()
	text = scrape(t, cs.URL)
	if !strings.Contains(text, "sfi_converged") {
		t.Fatalf("coordinator exposition has no convergence gauges:\n%s", text)
	}
	if err := checkExposition(text); err != nil {
		t.Errorf("coordinator /metrics: %v\n%s", err, text)
	}
}
