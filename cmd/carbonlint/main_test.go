package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/carbonedge/carbonedge/internal/analysis"
)

// TestSuiteComplete pins the analyzer roster to DESIGN.md §7's audit
// table: exactly one row per analyzer in All, each naming a seeded defect
// and what else, if anything, catches it. An analyzer that cannot name the
// defect it holds does not join the suite.
func TestSuiteComplete(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(design), "\n## 7. ")
	sec, _, _ = strings.Cut(sec, "\n## ")
	var header []string
	rows := map[string][]string{}
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if header == nil {
			header = cells
			continue
		}
		m := codeSpanRE.FindStringSubmatch(cells[0])
		if m == nil || m[0] != cells[0] {
			continue // the separator, or a miss that no analyzer holds
		}
		if rows[m[1]] != nil {
			t.Errorf("DESIGN.md §7's table has two rows for %q", m[1])
		}
		rows[m[1]] = cells
	}
	seed, catcher := slices.Index(header, "Seeded defect"), slices.Index(header, "Other catcher")
	if seed < 0 || catcher < 0 {
		t.Fatalf("DESIGN.md §7's table has the columns %q, want Seeded defect and Other catcher among them", header)
	}
	for _, a := range All {
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
		cells, ok := rows[a.Name]
		if !ok {
			t.Errorf("analyzer %q has no row in DESIGN.md §7's table", a.Name)
			continue
		}
		delete(rows, a.Name)
		for _, col := range []int{seed, catcher} {
			if col >= len(cells) || cells[col] == "" {
				t.Errorf("DESIGN.md §7: the row of %q has no %s", a.Name, header[col])
			}
		}
	}
	for name := range rows {
		t.Errorf("DESIGN.md §7's table has a row for %q, which carbonlint does not run", name)
	}
}

// repo is the module's non-test packages, loaded once for the three tests
// that read them.
var repo = sync.OnceValues(func() ([]*analysis.Package, error) {
	return analysis.Load("../..", "./...")
})

func loadRepo(t *testing.T) []*analysis.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("shells out to go list -export")
	}
	pkgs, err := repo()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestRepoIsClean makes the invariant gate part of the tier-1 suite: the
// repository must lint clean, so a violation breaks `go test ./...` too,
// not just `make lint`. Fix the finding or annotate it with
// //lint:allow <analyzer> <reason> (see DESIGN.md "Static invariants").
func TestRepoIsClean(t *testing.T) {
	pkgs := loadRepo(t)
	findings, err := analysis.RunAnalyzers(pkgs, All)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestRunExitCodes drives the command as make lint does: -l lists every
// analyzer, and -json over a clean package prints an empty array and exits 0.
// CI's lint smoke plants one violation per analyzer for exit code 1.
func TestRunExitCodes(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-l"}, &out); code != 0 || strings.Count(out.String(), "\n") != len(All) {
		t.Errorf("-l: exit %d, want 0 and %d lines:\n%s", code, len(All), out.String())
	}
	if testing.Short() {
		t.Skip("shells out to go list -export")
	}
	out.Reset()
	if code := run([]string{"-json", "."}, &out); code != 0 || out.String() != "[]\n" {
		t.Errorf("-json .: exit %d, stdout %q; want 0 and []", code, out.String())
	}
}

// TestHotSetCrossesPackages pins the one call graph every analyzer shares
// across package boundaries, which no analyzertest fixture spans: the hot set
// follows engine.Shard.Step through EdgeStepper interface dispatch into sim,
// and stops at deploy's //lint:cold TCP stepper.
func TestHotSetCrossesPackages(t *testing.T) {
	graph, _ := analysis.BuildGraph(loadRepo(t))
	const internal = "github.com/carbonedge/carbonedge/internal/"
	if path, hot := graph.HotPath(internal + "sim.scenarioStepper.Step"); !hot || !strings.HasPrefix(path, "Shard.Step → ") {
		t.Errorf("sim.scenarioStepper.Step: hot=%v via %q, want hot via a chain from Shard.Step", hot, path)
	}
	const cold = internal + "deploy.tcpStepper.exchange"
	if graph.Funcs[cold] == nil {
		t.Fatalf("%s is not in the graph", cold)
	}
	if path, hot := graph.HotPath(cold); hot {
		t.Errorf("%s is hot via %q; it sits behind //lint:cold", cold, path)
	}
}

// keptForTests lists the functions under internal/ that no binary reaches and
// that stay anyway, each with the reason. Keys drop the module's internal/
// prefix. Anything unreachable and not listed here fails TestNoTestOnlyFuncs:
// delete it with its tests, or move it into its package's _test.go files.
// An entry is a telemetry accessor (an exported method whose reason starts
// "telemetry accessor", waiting for the telemetry observer) or in
// frameworkKept; TestNoTestOnlyFuncs rejects any other.
var keptForTests = map[string]string{
	"numeric.ApproxEqual":    "the comparison the floateq analyzer sends callers to",
	"numeric.lfSource.Int63": "rand.Source method; math/rand calls it, not the repo",

	"bandit.BlockedTsallisINF.Probabilities":   "telemetry accessor (ROADMAP telemetry item ii): arm distribution p",
	"bandit.BlockedTsallisINF.Blocks":          "telemetry accessor: block index",
	"bandit.BlockedTsallisINF.EstimatedLosses": "telemetry accessor: importance-weighted C-hat",
	"market.Ledger.Allowances":                 "telemetry accessor: ledger position",
}

// frameworkKept are the keptForTests entries that are not telemetry
// accessors: a helper the linter itself prescribes, and a method the
// standard library calls through an interface.
var frameworkKept = map[string]bool{"numeric.ApproxEqual": true, "numeric.lfSource.Int63": true}

// TestNoTestOnlyFuncs is the regrowth fence for "every package ships what a
// binary runs": a function or method under internal/ must be reachable in the
// call graph from a main, an init or a package-level initializer, or be
// listed in keptForTests (whose callees then count as reached too). A method
// is reached through a static call, or through a call on an interface its
// receiver type implements, as hotalloc's hot set is. internal/analysis is the
// linter, which only tests and carbonlint itself drive.
func TestNoTestOnlyFuncs(t *testing.T) {
	pkgs := loadRepo(t)
	const internal = "github.com/carbonedge/carbonedge/internal/"
	graph, _ := analysis.BuildGraph(pkgs)
	var roots []string
	mains := map[string]bool{}
	for _, pkg := range pkgs {
		mains[pkg.PkgPath] = pkg.Types.Name() == "main"
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if _, ok := decl.(*ast.GenDecl); !ok {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
							roots = append(roots, analysis.FuncKeyOf(fn))
						}
					}
					return true
				})
			}
		}
	}
	for _, f := range graph.Funcs {
		f.Cold = false                            // hotalloc's pruning mark; cold code still ships
		f.Calls = append(f.Calls, f.TakesAddr...) // a value handed to the stdlib is called there
		if f.Display == "init" || f.Display == "main" && mains[f.PkgPath] {
			roots = append(roots, f.Key)
		}
	}
	shipped := graph.Reachable(roots)
	for name, reason := range keptForTests {
		f := graph.Funcs[internal+name]
		switch _, reached := shipped[internal+name]; {
		case reached:
			t.Errorf("keptForTests names %s, which a binary now reaches: drop the entry", name)
		case f == nil:
			t.Errorf("keptForTests names %s, which no longer exists", name)
		case !frameworkKept[name] && !(isExportedMethod(f.Display) && strings.HasPrefix(reason, "telemetry accessor")):
			t.Errorf("keptForTests names %s, which is neither a telemetry accessor nor in frameworkKept: move it into its package's _test.go files", name)
		}
		roots = append(roots, internal+name)
	}
	reached := graph.Reachable(roots)
	for key, f := range graph.Funcs {
		name, ok := strings.CutPrefix(key, internal)
		if _, hit := reached[key]; !ok || strings.HasPrefix(name, "analysis") || hit {
			continue
		}
		t.Errorf("%s: %s is reached by no binary: delete it with its tests, or add it to keptForTests with the reason", f.Pos, name)
	}
}

// isExportedMethod reports whether a graph node's Display ("Recv.Name" or
// "Name") names an exported method.
func isExportedMethod(display string) bool {
	_, name, _ := strings.Cut(display, ".")
	return ast.IsExported(name)
}

// TestEveryProgramIsTested is the regrowth fence for programs: every main
// package under cmd/ or examples/ needs a _test.go file that calls its run,
// so that go test runs what the binary runs. benchmark/ is exempt: it is
// frozen per change, and its own tests drive it.
func TestEveryProgramIsTested(t *testing.T) {
	mains, tested := map[string]bool{}, map[string]bool{}
	for _, top := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join("../..", top), func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || filepath.Ext(path) != ".go":
				return nil
			}
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil || file.Name.Name != "main" {
				return err
			}
			dir, _ := filepath.Rel("../..", filepath.Dir(path))
			if !strings.HasSuffix(path, "_test.go") {
				mains[dir] = true
				return nil
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "run" {
						tested[dir] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for dir := range mains {
		if !tested[dir] {
			t.Errorf("%s is a main package whose tests never call its run: pin what it prints, or delete it", filepath.ToSlash(dir))
		}
	}
}

// TestNoWriteOnlyFields is the regrowth fence for state no binary reads: an
// unexported struct field declared in non-test code under internal/, cmd/ or
// examples/ must be read by some non-test selector. A selector on the left of
// an assignment or of ++/-- (indexed or not: f.x[i]++ writes f.x) is a write,
// every other use a read, and a promoted selector reads the embedded fields
// it passes through. Fields of generic types count through their origin. A
// counter kept beside the fact it duplicates is the usual catch.
func TestNoWriteOnlyFields(t *testing.T) {
	pkgs := loadRepo(t)
	const module = "github.com/carbonedge/carbonedge/"
	fields := map[*types.Var]string{} // declared field -> "pos: pkg.Type.field"
	read := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		owner := map[*ast.Ident]string{} // field name -> "Type." when declared in a named struct
		writes := map[*ast.SelectorExpr]bool{}
		lhs := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					writes[x] = true
					return
				default:
					return
				}
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						for _, f := range st.Fields.List {
							for _, id := range f.Names {
								owner[id] = n.Name.Name + "."
							}
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						lhs(e)
					}
				case *ast.IncDecStmt:
					lhs(n.X)
				case *ast.SelectorExpr:
					sel := pkg.Info.Selections[n]
					if sel == nil {
						break
					}
					if sel.Kind() == types.FieldVal && !writes[n] {
						read[sel.Obj().(*types.Var).Origin()] = true
					}
					// A promoted field or method reads every embedded field
					// on its path.
					typ, path := sel.Recv(), sel.Index()
					for _, i := range path[:len(path)-1] {
						if p, ok := typ.Underlying().(*types.Pointer); ok {
							typ = p.Elem()
						}
						f := typ.Underlying().(*types.Struct).Field(i)
						read[f.Origin()] = true
						typ = f.Type()
					}
				}
				return true
			})
		}
		name, _ := strings.CutPrefix(pkg.PkgPath, module)
		if !strings.HasPrefix(name, "internal/") && !strings.HasPrefix(name, "cmd/") && !strings.HasPrefix(name, "examples/") {
			continue
		}
		for id, obj := range pkg.Info.Defs {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !v.Exported() {
				fields[v] = fmt.Sprintf("%s: %s.%s%s", pkg.Fset.Position(id.Pos()), name, owner[id], id.Name)
			}
		}
	}
	for v, name := range fields {
		if !read[v] {
			t.Errorf("%s is written but never read: delete it, or read it where a binary shows it", name)
		}
	}
}

// The size ceilings: raw lines (every line, blank and comment ones included)
// of the tree's non-test Go and assembly, counted by lineCounts. A change that
// raises one edits it here and gives the reason in CHANGES.md; a change that
// lowers a count lowers its ceiling to match.
const (
	goLineCeiling  = 16370
	asmLineCeiling = 1712
)

// docByteCeiling holds the two living design documents to their size in
// bytes, by the same rule: DESIGN.md says what the code does now and
// EXPERIMENTS.md what it measures now, and the history of how either got
// there is CHANGES.md's.
var docByteCeiling = map[string]int{
	"DESIGN.md":      64582,
	"EXPERIMENTS.md": 18483,
}

// lineCount is one package's (or the total's) raw and code lines, Go at
// index 0 and assembly at 1; a code line is neither blank nor a // comment.
type lineCount struct{ raw, code [2]int }

var commentOrBlankRE = regexp.MustCompile(`^[ \t]*($|//)`)

// lineCounts counts the non-test .go and .s files under root per directory,
// relative to root; benchmark/ (frozen per change, run as its own binary) and
// every testdata/ tree are skipped.
func lineCounts(root string) (map[string]*lineCount, error) {
	counts := map[string]*lineCount{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == ".git" || rel == "benchmark" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".s" || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(rel))
		if counts[pkg] == nil {
			counts[pkg] = &lineCount{}
		}
		c, lang := counts[pkg], 0
		if ext == ".s" {
			lang = 1
		}
		for _, line := range bytes.SplitAfter(src, []byte("\n")) {
			if len(line) == 0 {
				continue // the empty remainder after a final newline
			}
			c.raw[lang]++
			if !commentOrBlankRE.Match(bytes.TrimSuffix(line, []byte("\n"))) {
				c.code[lang]++
			}
		}
		return nil
	})
	return counts, err
}

// TestSizeBudget is the size fence: the tree's non-test Go and assembly raw
// lines may not exceed goLineCeiling and asmLineCeiling, nor DESIGN.md and
// EXPERIMENTS.md their docByteCeiling. It logs the per-package table and the
// documents' sizes (make loc runs it with -v), the one line count ROADMAP.md
// and a simplicity change quote.
func TestSizeBudget(t *testing.T) {
	counts, err := lineCounts("../..")
	if err != nil {
		t.Fatal(err)
	}
	var total lineCount
	var table strings.Builder
	row := func(name string, c lineCount) {
		fmt.Fprintf(&table, "%-32s %8d %8d %8d %8d\n", name, c.raw[0], c.code[0], c.raw[1], c.code[1])
	}
	fmt.Fprintf(&table, "%-32s %8s %8s %8s %8s\n", "package", "go raw", "go code", "asm raw", "asm code")
	pkgs := make([]string, 0, len(counts))
	for pkg := range counts {
		pkgs = append(pkgs, pkg)
	}
	slices.Sort(pkgs)
	for _, pkg := range pkgs {
		c := counts[pkg]
		row(pkg, *c)
		for lang := range c.raw {
			total.raw[lang] += c.raw[lang]
			total.code[lang] += c.code[lang]
		}
	}
	row("total", total)
	docs := make([]string, 0, len(docByteCeiling))
	for doc := range docByteCeiling {
		docs = append(docs, doc)
	}
	slices.Sort(docs)
	for _, doc := range docs {
		fi, err := os.Stat(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&table, "%-32s %8d bytes, ceiling %d\n", doc, fi.Size(), docByteCeiling[doc])
		if fi.Size() > int64(docByteCeiling[doc]) {
			t.Errorf("%s is %d bytes, over its ceiling of %d: move history to CHANGES.md, or raise docByteCeiling with the reason in CHANGES.md", doc, fi.Size(), docByteCeiling[doc])
		}
	}
	t.Log("\n" + table.String())
	if total.raw[0] > goLineCeiling {
		t.Errorf("non-test Go is %d raw lines, over the ceiling of %d: delete as much, or raise goLineCeiling with the reason in CHANGES.md", total.raw[0], goLineCeiling)
	}
	if total.raw[1] > asmLineCeiling {
		t.Errorf("assembly is %d raw lines, over the ceiling of %d: delete as much, or raise asmLineCeiling with the reason in CHANGES.md", total.raw[1], asmLineCeiling)
	}
}

// keptOptions lists the exported fields of exported ...Config / Options
// structs under internal/ that no shipped code outside the declaring package
// writes and that stay anyway, each with the reason. Keys drop the module's
// internal/ prefix. A field with no outside writer that is not listed here
// fails TestNoUnsetOptions: delete it (a constant serves one value), or say
// here why it stays.
var keptOptions = map[string]string{
	"figures.Options.Clock": "Fig. 14's y-axis is wall time; tests inject a fake clock to keep the harness deterministic",

	"trading.PrimalDualConfig.InitialCap": "set through DefaultPrimalDualConfig or ScaledPrimalDualConfig(initialCap, horizon, ...), the ways shipped code builds the config",
	"trading.PrimalDualConfig.Horizon":    "set through DefaultPrimalDualConfig or ScaledPrimalDualConfig, as InitialCap",
}

// TestNoUnsetOptions is the regrowth fence for options: every exported field
// of an exported ...Config or Options struct under internal/ must be written
// — as a composite-literal key or an assignment target — by non-test code
// outside its declaring package (examples and benchmark/ are mains and
// count), or be listed in keptOptions. A knob nothing sets is a constant
// with a second configuration to test.
func TestNoUnsetOptions(t *testing.T) {
	pkgs := loadRepo(t)
	const internal = "github.com/carbonedge/carbonedge/internal/"
	options := map[string]string{} // "pkg.Type.Field" -> declaration position
	for _, pkg := range pkgs {
		name, ok := strings.CutPrefix(pkg.PkgPath, internal)
		if !ok || strings.HasPrefix(name, "analysis") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, typeName := range scope.Names() {
			obj, ok := scope.Lookup(typeName).(*types.TypeName)
			if !ok || obj.IsAlias() || !obj.Exported() || typeName != "Options" && !strings.HasSuffix(typeName, "Config") {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					options[name+"."+typeName+"."+f.Name()] = pkg.Fset.Position(f.Pos()).String()
				}
			}
		}
	}
	written := map[string]bool{}
	for _, pkg := range pkgs {
		// write records field of struct type typ as written when typ is
		// declared under internal/ in another package than the writer's.
		write := func(typ types.Type, field string) {
			if typ == nil {
				return
			}
			typ = types.Unalias(typ)
			if p, ok := typ.(*types.Pointer); ok {
				typ = types.Unalias(p.Elem())
			}
			named, ok := typ.(*types.Named)
			if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() == pkg.PkgPath {
				return
			}
			if name, ok := strings.CutPrefix(named.Obj().Pkg().Path(), internal); ok {
				written[name+"."+named.Obj().Name()+"."+field] = true
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								write(pkg.Info.TypeOf(n), id.Name)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							write(pkg.Info.TypeOf(sel.X), sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
	}
	for name := range keptOptions {
		switch {
		case options[name] == "":
			t.Errorf("keptOptions names %s, which no longer exists", name)
		case written[name]:
			t.Errorf("keptOptions names %s, which shipped code outside its package now sets: drop the entry", name)
		}
	}
	for name, pos := range options {
		if !written[name] && keptOptions[name] == "" {
			t.Errorf("%s: %s is set by no shipped code outside its package: delete the option, or add it to keptOptions with the reason", pos, name)
		}
	}
}
