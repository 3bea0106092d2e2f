// Command carbonlint is the repository's invariant gate: a multichecker
// over the custom analyzers in internal/analysis that encode the engine's
// determinism, numeric, hot-path, and wire-protocol rules as build-breaking
// checks.
//
//	go run ./cmd/carbonlint ./...
//
// runs every analyzer over the matched packages (test files excluded) and
// exits nonzero if any finding survives //lint:allow suppression. The
// call-graph analyzers (hotalloc, errtaxonomy) anchor on //lint:hotroot
// annotations and whole-program reachability, so carbonlint should be run
// over ./... rather than single packages. See DESIGN.md ("Static
// invariants") for the analyzer catalogue and the annotation convention.
//
// Flags:
//
//	-l             list the analyzers and exit
//	-json          emit findings as a JSON array on stdout (CI consumes this)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/carbonedge/carbonedge/internal/analysis"
	"github.com/carbonedge/carbonedge/internal/analysis/errtaxonomy"
	"github.com/carbonedge/carbonedge/internal/analysis/floateq"
	"github.com/carbonedge/carbonedge/internal/analysis/hotalloc"
	"github.com/carbonedge/carbonedge/internal/analysis/maporder"
	"github.com/carbonedge/carbonedge/internal/analysis/nodeterm"
	"github.com/carbonedge/carbonedge/internal/analysis/panicpolicy"
	"github.com/carbonedge/carbonedge/internal/analysis/simdcover"
)

// All is the analyzer suite carbonlint runs, in diagnostic-name order.
var All = []*analysis.Analyzer{
	errtaxonomy.Analyzer,
	floateq.Analyzer,
	hotalloc.Analyzer,
	maporder.Analyzer,
	nodeterm.Analyzer,
	panicpolicy.Analyzer,
	simdcover.Analyzer,
}

// jsonFinding is the stable shape CI smoke gates parse; field names are
// part of the tool's interface, keep them in sync with .github/workflows.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the command on its arguments. It returns the exit code: 1 when a
// finding survives suppression, 2 when the packages do not load.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("carbonlint", flag.ExitOnError)
	list := fs.Bool("l", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: carbonlint [flags] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Runs the repository's determinism and numeric invariant analyzers.\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 here, -h exits 0
	if *list {
		for _, a := range All {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, strings.SplitN(a.Doc, ";", 2)[0])
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var findings []analysis.Finding
	pkgs, err := analysis.Load(".", patterns...)
	if err == nil {
		findings, err = analysis.RunAnalyzers(pkgs, All)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s\n", f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "carbonlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
