package analysis

import (
	"go/token"
	"strings"
	"testing"
)

// TestLoadRealPackages exercises the production loader against the module
// itself: packages come back type-checked, with resolved imports and usable
// position information.
func TestLoadRealPackages(t *testing.T) {
	pkgs, err := Load("../..", "./internal/numeric", "./internal/engine")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	// Sorted by import path: engine before numeric.
	if !strings.HasSuffix(pkgs[0].PkgPath, "internal/engine") {
		t.Errorf("pkgs[0] = %s, want .../internal/engine", pkgs[0].PkgPath)
	}
	for _, pkg := range pkgs {
		if len(pkg.Files) == 0 {
			t.Errorf("%s: no files", pkg.PkgPath)
		}
		if pkg.Types == nil || !pkg.Types.Complete() {
			t.Errorf("%s: incomplete type information", pkg.PkgPath)
		}
		if len(pkg.Info.Uses) == 0 {
			t.Errorf("%s: empty Uses map", pkg.PkgPath)
		}
	}
	// Engine's SplitRNG-free randomness contract depends on cross-package
	// resolution: its imported market package must have real types.
	engine := pkgs[0]
	market := engine.Types.Imports()
	found := false
	for _, imp := range market {
		if strings.HasSuffix(imp.Path(), "internal/market") {
			found = true
			if imp.Scope().Lookup("Prices") == nil {
				t.Errorf("market export data missing Prices")
			}
		}
	}
	if !found {
		t.Errorf("engine imports resolved without internal/market")
	}
}

// TestRunAnalyzersSuppression pins the allow-directive semantics at the
// framework level: same-line and line-above directives suppress, and the
// runner reports malformed/unused directives itself.
func TestRunAnalyzersSuppression(t *testing.T) {
	pkgs, err := Load("../..", "./internal/analysis/nodeterm")
	if err != nil {
		t.Fatal(err)
	}
	probe := &Analyzer{
		Name: "probe",
		Doc:  "reports every file's package clause once",
		Run: func(p *Pass) (any, error) {
			for _, f := range p.Files {
				p.Reportf(f.Package, "package clause")
			}
			return nil, nil
		},
	}
	findings, err := RunAnalyzers(pkgs, []*Analyzer{probe})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("probe reported nothing")
	}
	for _, f := range findings {
		if f.Analyzer != "probe" {
			t.Errorf("unexpected analyzer %q in %s", f.Analyzer, f)
		}
		if !f.Pos.IsValid() || f.Pos.Line == 0 {
			t.Errorf("finding without position: %s", f)
		}
	}
}

// TestFindingString pins the diagnostic format the Makefile and CI grep.
func TestFindingString(t *testing.T) {
	f := Finding{
		Analyzer: "nodeterm",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "msg",
	}
	if got, want := f.String(), "x.go:3:7: [nodeterm] msg"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
