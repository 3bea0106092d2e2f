package main

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestRunDefaultSmall(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-edges", "3", "-horizon", "40", "-seed", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"scenario:", "Ours", "Offline", "UCB-LY", "total"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunSingleCombo(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-edges", "2", "-horizon", "30", "-combo", "Ours"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "Ours") || !strings.Contains(got, "Offline") {
		t.Errorf("output missing schemes:\n%s", got)
	}
	if strings.Contains(got, "UCB-LY") {
		t.Errorf("single-combo run should not include baselines:\n%s", got)
	}
}

func TestRunOverrides(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-edges", "2", "-horizon", "30",
		"-cap", "7", "-rate", "900", "-switch-weight", "3", "-combo", "Ours",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "cap=7") || !strings.Contains(got, "rate=900") {
		t.Errorf("overrides not reflected:\n%s", got)
	}
}

func TestRunTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	// Export the traces of a small scenario...
	err := run([]string{
		"-edges", "3", "-horizon", "25", "-combo", "Ours",
		"-export-traces", dir,
	}, &out)
	if err != nil {
		t.Fatalf("export run: %v", err)
	}
	// ...then feed them back in; the scenario dimensions must come from the
	// traces.
	out.Reset()
	err = run([]string{
		"-edges", "99", "-horizon", "99", "-combo", "Ours",
		"-workload-csv", filepath.Join(dir, "workload.csv"),
		"-prices-csv", filepath.Join(dir, "prices.csv"),
	}, &out)
	if err != nil {
		t.Fatalf("import run: %v", err)
	}
	if !strings.Contains(out.String(), "3 edges, 25 slots") {
		t.Errorf("trace dimensions not honored:\n%s", out.String())
	}
}

func TestRunJSONExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out strings.Builder
	err := run([]string{"-edges", "2", "-horizon", "20", "-combo", "Ours", "-json", path}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "Ours"`, `"name": "Offline"`, `"cumTotal"`, `"fit"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("json missing %q", want)
		}
	}
	if err := run([]string{"-edges", "2", "-horizon", "10", "-json", "/nonexistent-dir/x.json", "-combo", "Ours"}, &out); err == nil {
		t.Error("expected error for unwritable json path")
	}
}

func TestRunTraceErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-workload-csv", "/nonexistent.csv"}, &out); err == nil {
		t.Error("expected error for missing workload csv")
	}
	if err := run([]string{"-prices-csv", "/nonexistent.csv"}, &out); err == nil {
		t.Error("expected error for missing price csv")
	}
	if err := run([]string{"-edges", "2", "-horizon", "10", "-export-traces", "/proc/forbidden/x"}, &out); err == nil {
		t.Error("expected error for unwritable export dir")
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-combo", "NoSuch"}, &out); err == nil {
		t.Error("expected error for unknown combo")
	}
	if err := run([]string{"-zoo", "nope"}, &out); err == nil {
		t.Error("expected error for unknown zoo")
	}
	if err := run([]string{"-edges", "0"}, &out); err == nil {
		t.Error("expected error for zero edges")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("expected flag parse error")
	}
	// A non-finite or uncountable scalar is an error that names it, never a
	// silent default or a NaN total.
	for _, tc := range []struct{ flag, value, want string }{
		{"-cap", "NaN", "-cap"},
		{"-rate", "NaN", "-rate"},
		{"-mean-workload", "NaN", "-mean-workload"},
		{"-cap", "+Inf", "cap +Inf"},
		{"-rate", "+Inf", "emission rate +Inf"},
		{"-switch-weight", "NaN", "switch weight NaN"},
		{"-switch-weight", "+Inf", "switch weight +Inf"},
		{"-mean-workload", "+Inf", "MeanPeak +Inf"},
		{"-mean-workload", "1e300", "MeanPeak 1e+300"},
	} {
		err := run([]string{"-edges", "2", "-horizon", "10", "-combo", "Ran-Ran", tc.flag, tc.value}, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %s: error %v, want one naming %q", tc.flag, tc.value, err, tc.want)
		}
	}
}

// TestZooUsageNamesEveryKind holds the -zoo help to buildZoo: read from
// main.go's syntax tree, the flag's usage lists exactly the string cases of
// buildZoo's switch, in the same order.
func TestZooUsageNamesEveryKind(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	str := func(e ast.Expr) string {
		lit, _ := e.(*ast.BasicLit)
		if lit == nil || lit.Kind != token.STRING {
			return ""
		}
		s, _ := strconv.Unquote(lit.Value)
		return s
	}
	var usage string
	var kinds []string
	ast.Inspect(file, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 3 && str(call.Args[0]) == "zoo" {
			usage = str(call.Args[2])
		}
		if fn, ok := n.(*ast.FuncDecl); ok && fn.Name.Name == "buildZoo" {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						kinds = append(kinds, str(e))
					}
				}
				return true
			})
		}
		return true
	})
	listed := strings.Split(strings.TrimPrefix(usage, "model zoo: "), " | ")
	if len(kinds) == 0 || !slices.Equal(listed, kinds) {
		t.Errorf("-zoo usage %q lists %q; buildZoo accepts %q", usage, listed, kinds)
	}
}

// TestRunQuantizedZooPinned pins the quantized-zoo path end to end: the
// SHA-256 of stdout for a small -zoo mnist-q8 run, its q8 arms scored by the
// INT8 engine. The run trains a six-model zoo (~3 s).
func TestRunQuantizedZooPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a zoo")
	}
	const digest = "715033da265cc67c87b6b9a33c1e1ed2d6e3a20f2deaf81a17c2868ab85f3ad6"
	var out strings.Builder
	args := []string{"-zoo", "mnist-q8", "-edges", "3", "-horizon", "20", "-combo", "Ours"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != digest {
		t.Errorf("%v: stdout digest %s, want %s:\n%s", args, got, digest, out.String())
	}
}
