package main

import (
	"os"
	"strings"
	"testing"
)

// TestRunMatchesCommittedOutput pins the example end to end: its stdout must
// be byte-identical to results/examples/carbonmarket.txt. If a change moves it on
// purpose, regenerate the file with
// `go run ./examples/carbonmarket > results/examples/carbonmarket.txt` and say why.
func TestRunMatchesCommittedOutput(t *testing.T) {
	want, err := os.ReadFile("../../results/examples/carbonmarket.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("stdout diverged from results/examples/carbonmarket.txt:\n%s", out.String())
	}
}
