package obs

import (
	"strings"
	"testing"

	"sfi/internal/stats"
)

func TestWriteConvergencePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := WriteConvergencePrometheus(&sb, "sfi", nil); err != nil || sb.Len() != 0 {
		t.Fatalf("nil convergence wrote %q err %v", sb.String(), err)
	}
	rule := stats.StopRule{TargetMargin: 0.5, Confidence: 0.95, MinPerClass: 10}
	c := rule.Eval([]string{"", "vanished", "sdc"}, map[string]int64{"vanished": 990, "sdc": 10}, 1000)
	if err := WriteConvergencePrometheus(&sb, "sfi", c); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE sfi_ci_width gauge",
		`sfi_ci_lo{class="vanished"}`,
		`sfi_ci_hi{class="sdc"}`,
		`sfi_class_converged{class="vanished"} 1`,
		"sfi_converged 1",
		"sfi_ci_target_margin 0.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
