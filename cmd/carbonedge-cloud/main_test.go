package main

import (
	"strings"
	"testing"

	"github.com/carbonedge/carbonedge/internal/deploy"
)

func TestRunFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-edges", "0"}, &out); err == nil {
		t.Error("expected error for zero edges")
	}
	if err := run([]string{"-horizon", "0"}, &out); err == nil {
		t.Error("expected error for zero horizon")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("expected flag parse error")
	}
	if err := run([]string{"-listen", "999.999.999.999:0", "-train", "50", "-epochs", "1"}, &out); err == nil {
		t.Error("expected error for bad listen address")
	}
}

// TestPrintSummaryRegionsLine pins the root's elasticity line: absent on a
// fault-free run (all three counters nil), one line of totals otherwise.
func TestPrintSummaryRegionsLine(t *testing.T) {
	var out strings.Builder
	printSummary(&out, &deploy.Summary{})
	if strings.Contains(out.String(), "regions:") {
		t.Errorf("fault-free summary prints a regions line:\n%s", out.String())
	}
	out.Reset()
	printSummary(&out, &deploy.Summary{
		RegionResumes: map[int]int{1: 1, 3: 2},
		RegionRetries: []int{0, 2, 0, 1},
		Rebalances:    []int{0, 1, 0, 0},
	})
	if want := "regions: resumes=3 retries=3 rebalances=1\n"; !strings.Contains(out.String(), want) {
		t.Errorf("summary output %q does not contain %q", out.String(), want)
	}
}
