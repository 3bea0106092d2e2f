package main

import (
	"strings"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-id", "-1"}, &out); err == nil {
		t.Error("expected error for negative id")
	}
	if err := run([]string{"-pool", "0"}, &out); err == nil {
		t.Error("expected error for zero pool")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("expected flag parse error")
	}
	// Nothing is listening on this port: the run never connected, so its
	// error is the dial's, not an exhausted resume budget.
	for _, resumes := range []string{"0", "2"} {
		err := run([]string{"-connect", "127.0.0.1:1", "-pool", "5", "-resumes", resumes}, &out)
		if err == nil {
			t.Errorf("-resumes %s: expected connection error", resumes)
		} else if strings.Contains(err.Error(), "resume budget") {
			t.Errorf("-resumes %s: dial failure reported as %q", resumes, err)
		}
	}
}
