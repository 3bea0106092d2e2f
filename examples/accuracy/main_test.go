package main

import (
	"os"
	"strings"
	"testing"
)

// TestRunMatchesCommittedOutput pins the example end to end: its stdout must
// be byte-identical to results/examples/accuracy.txt. If a change moves it on
// purpose, regenerate the file with
// `go run ./examples/accuracy > results/examples/accuracy.txt` and say why.
func TestRunMatchesCommittedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a six-network zoo")
	}
	want, err := os.ReadFile("../../results/examples/accuracy.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("stdout diverged from results/examples/accuracy.txt:\n%s", out.String())
	}
}
