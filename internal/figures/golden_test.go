package figures

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// TestFig3MatchesCommittedGolden regenerates Fig. 3 at the committed options
// (benchgen -fig 3 -runs 3, the invocation that produced results/fig3.txt)
// and requires the rendered table to be byte-identical to the committed file.
// This is the regression fence for the Result export/golden coupling: any
// change that perturbs the simulation's float stream or the renderer — the
// engine's sharded reduction included — fails here before it silently skews
// the committed artifacts.
//
// Note it diffs against results/fig3.txt; the full-suite fence over
// results/figures.txt lives in TestFiguresMatchCommittedGolden below.
func TestFig3MatchesCommittedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating Fig. 3 runs 18 simulations")
	}
	fig, err := Fig3CumulativeCost(Options{Runs: 3, Seed: 1, Edges: 10, Horizon: 160})
	if err != nil {
		t.Fatal(err)
	}
	rendered := Render(fig)
	golden, err := os.ReadFile("../../results/fig3.txt")
	if err != nil {
		t.Fatal(err)
	}
	if rendered != string(golden) {
		t.Fatalf("regenerated Fig. 3 diverged from the committed results/fig3.txt;\n"+
			"if the change is intentional, regenerate with "+
			"`go run ./cmd/benchgen -fig 3 -runs 3 -out results/fig3.txt`.\nregenerated:\n%s", rendered)
	}
}

// TestFiguresMatchCommittedGolden regenerates every deterministic figure
// (Figs. 3-13) at the committed options (benchgen -runs 3, the invocation
// that produced results/figures.txt) and requires the rendered tables to be
// byte-identical to the committed file. Fig. 14 is excluded: its y-axis is
// wall time (Options.Clock), so its committed section is provenance, not a
// golden. Together with the Fig. 3 fence above this makes every
// deterministic committed artifact a regression gate on `make test`.
func TestFiguresMatchCommittedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating Figs. 3-13 runs the full simulation grid")
	}
	golden, err := os.ReadFile("../../results/figures.txt")
	if err != nil {
		t.Fatal(err)
	}
	idx := strings.Index(string(golden), "== Fig14:")
	if idx < 0 {
		t.Fatal("results/figures.txt has no Fig14 section; regenerate it with `go run ./cmd/benchgen -runs 3 -out results/figures.txt`")
	}
	want := string(golden[:idx])

	opts := Options{Runs: 3, Seed: 1, Edges: 10, Horizon: 160}
	var b strings.Builder
	gens := All()
	ids := make([]int, 0, len(gens))
	for id := range gens {
		if id != 14 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		fig, err := gens[id](opts)
		if err != nil {
			t.Fatalf("figure %d: %v", id, err)
		}
		b.WriteString(Render(fig))
		b.WriteString("\n")
	}
	if got := b.String(); got != want {
		t.Fatalf("regenerated Figs. 3-13 diverged from the committed results/figures.txt;\n" +
			"if the change is intentional, regenerate with " +
			"`go run ./cmd/benchgen -runs 3 -out results/figures.txt`.")
	}
}

// TestAblationsMatchCommittedGolden regenerates every ablation at the
// committed options (benchgen -ablation all -runs 3, the invocation that
// produced results/ablations.txt) and requires the rendered tables to be
// byte-identical to the committed file. AblSubstrate trains a small zoo, so
// this is also the one results/ golden that crosses internal/nn's training
// kernels.
func TestAblationsMatchCommittedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating the ablations runs four simulation sweeps and trains a zoo")
	}
	golden, err := os.ReadFile("../../results/ablations.txt")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Runs: 3, Seed: 1, Edges: 10, Horizon: 160}
	gens := Ablations()
	var b strings.Builder
	for _, name := range AblationNames() {
		fig, err := gens[name](opts)
		if err != nil {
			t.Fatalf("ablation %s: %v", name, err)
		}
		b.WriteString(Render(fig))
		b.WriteString("\n")
	}
	if got := b.String(); got != string(golden) {
		t.Fatalf("regenerated ablations diverged from the committed results/ablations.txt;\n"+
			"if the change is intentional, regenerate with "+
			"`go run ./cmd/benchgen -ablation all -runs 3 -out results/ablations.txt`.\nregenerated:\n%s", got)
	}
}
