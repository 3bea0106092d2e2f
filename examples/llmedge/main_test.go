package main

import (
	"os"
	"strings"
	"testing"
)

// TestRunMatchesCommittedOutput pins the example end to end: its stdout must
// be byte-identical to results/examples/llmedge.txt. If a change moves it on
// purpose, regenerate the file with
// `go run ./examples/llmedge > results/examples/llmedge.txt` and say why.
func TestRunMatchesCommittedOutput(t *testing.T) {
	want, err := os.ReadFile("../../results/examples/llmedge.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("stdout diverged from results/examples/llmedge.txt:\n%s", out.String())
	}
}
