package main

import (
	"bytes"
	"fmt"
	"go/ast"
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

// TestSuiteComplete pins the analyzer roster: DESIGN.md's "Static
// invariants" section documents exactly these eight.
func TestSuiteComplete(t *testing.T) {
	want := map[string]bool{
		"deltapure":   true,
		"errtaxonomy": true,
		"floateq":     true,
		"hotalloc":    true,
		"maporder":    true,
		"nodeterm":    true,
		"panicpolicy": true,
		"simdcover":   true,
	}
	for _, a := range All {
		if !want[a.Name] {
			t.Errorf("undocumented analyzer %q: update DESIGN.md and this test", a.Name)
		}
		delete(want, a.Name)
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
	for name := range want {
		t.Errorf("analyzer %q missing from the suite", name)
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
// delete it with its tests, or say here what a remaining test needs it for.
var keptForTests = map[string]string{
	"engine.runSerial":                 "oracle: the one-goroutine engine TestShardedMatchesSerialProperty holds RunSharded to",
	"nn.trainNaive":                    "oracle: per-sample SGD (with every layer's Forward/Backward) TestTrainBatchedMatchesNaiveBitForBit holds TrainShuffled to",
	"nn.SquaredLoss":                   "oracle: the paper's per-sample squared loss TestRowHelpersMatchPerSampleBitForBit holds SquaredLossRow to",
	"nn.Tensor.MaxIndex":               "oracle: argmax TestRowHelpersMatchPerSampleBitForBit holds ArgmaxRow to",
	"nn.QuantizeInPlace":               "oracle: fake-quant the int8 zoo arms and QuantizedNetwork are held to (TestQuantizeWeightsRoundTripsOracle)",
	"numeric.NewtonBisect":             "oracle: the closure solver TestTsallisWeightsMatchesClosureSolver holds the in-place root solve to",
	"numeric.TsallisObjective":         "oracle: the OMD objective TestTsallisWeightsMinimizesObjective checks the solve minimizes",
	"numeric.IsDistribution":           "instrument: simplex check of every TsallisWeights test",
	"numeric.Normalize":                "instrument: builds the competitor points TestTsallisWeightsMinimizesObjective compares against",
	"numeric.ApproxEqual":              "the comparison the floateq analyzer sends callers to",
	"numeric.lfSource.Int63":           "rand.Source method; math/rand calls it, not the repo",
	"trading.PrimalDual.SolveProximal": "oracle: numerical proximal step TestPrimalDualClosedFormMatchesNumericalProximal holds the closed form to",

	"nn.QuantizedNetwork.OutDim":       "instrument: logit width read by the qnetwork tests",
	"nn.QuantizedNetwork.ParamBytes":   "instrument: resident size TestRecompileMatchesFreshCompile compares",
	"models.SurrogateZoo.MeanAccuracy": "models.Zoo method; examples/accuracy calls TrainedZoo's",
	"bandit.UCB2.Selections":           "instrument: pull counts read by TestUCB2SelectionsAccounting",
	"bandit.UCB2.Switches":             "instrument: switch count read by TestUCB2LogarithmicSwitches",
	"trading.LyapunovTrader.Queue":     "instrument: virtual queue read by TestLyapunovQueueDynamics",

	"bandit.BlockedTsallisINF.Probabilities":   "telemetry accessor (ROADMAP telemetry item ii): arm distribution p",
	"bandit.BlockedTsallisINF.Blocks":          "telemetry accessor: block index",
	"bandit.BlockedTsallisINF.EstimatedLosses": "telemetry accessor: importance-weighted C-hat",
	"bandit.BlockedTsallisINF.Selections":      "telemetry accessor: per-arm pulls",
	"bandit.BlockedTsallisINF.Switches":        "telemetry accessor: switch events",
	"trading.PrimalDual.Lambda":                "telemetry accessor: dual variable",
	"trading.PrimalDual.GapSum":                "telemetry accessor: cumulative fit",
	"trading.PredictivePrimalDual.Lambda":      "telemetry accessor: dual variable of the predictive trader",
	"market.Ledger.Allowances":                 "telemetry accessor: ledger position",
	"market.Ledger.InitialCap":                 "telemetry accessor: R",
	"market.Ledger.NetCost":                    "telemetry accessor: realised trading cost",
	"market.Ledger.Revenue":                    "telemetry accessor: sale proceeds",
	"market.Ledger.Sold":                       "telemetry accessor: cumulative w",
	"market.Ledger.Trades":                     "telemetry accessor: trade count",
	"energy.Meter.Emission":                    "telemetry accessor (item iv): per-edge carbon",
	"energy.Meter.InferenceKWh":                "telemetry accessor: per-edge inference energy",
	"energy.Meter.Rate":                        "telemetry accessor: emission rate",
	"energy.Meter.TotalEmission":               "telemetry accessor: fleet carbon",
	"energy.Meter.TransferKWh":                 "telemetry accessor: per-edge download energy",
}

// TestNoTestOnlyFuncs is the regrowth fence for "every package ships what a
// binary runs": a function or method under internal/ must be reachable in the
// call graph from a main, an init or a package-level initializer, or be
// listed in keptForTests (whose callees then count as reached too).
// internal/analysis and internal/faults are the linter and the chaos suites'
// harness, which only tests and carbonlint itself drive.
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
		f.Cold = false // hotalloc's pruning mark; cold code still ships
		for _, ref := range f.TakesAddr {
			f.Calls = append(f.Calls, ref.Key) // a value handed to the stdlib is called there
		}
		if f.Display == "init" || f.Display == "main" && mains[f.PkgPath] {
			roots = append(roots, f.Key)
		}
	}
	shipped := graph.Reachable(roots)
	for name := range keptForTests {
		if _, ok := shipped[internal+name]; ok {
			t.Errorf("keptForTests names %s, which a binary now reaches: drop the entry", name)
		} else if graph.Funcs[internal+name] == nil {
			t.Errorf("keptForTests names %s, which no longer exists", name)
		}
		roots = append(roots, internal+name)
	}
	reached := graph.Reachable(roots)
	for key, f := range graph.Funcs {
		name, ok := strings.CutPrefix(key, internal)
		if _, hit := reached[key]; !ok || strings.HasPrefix(name, "analysis") || strings.HasPrefix(name, "faults.") || hit {
			continue
		}
		t.Errorf("%s: %s is reached by no binary: delete it with its tests, or add it to keptForTests with the reason", f.Pos, name)
	}
}

// The size ceilings: raw lines (every line, blank and comment ones included)
// of the tree's non-test Go and assembly, counted by lineCounts. A change that
// raises one edits it here and gives the reason in CHANGES.md; a change that
// lowers a count lowers its ceiling to match.
const (
	goLineCeiling  = 18512
	asmLineCeiling = 1712
)

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
// lines may not exceed goLineCeiling and asmLineCeiling. It logs the
// per-package table (make loc runs it with -v), the one line count ROADMAP.md
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
	"deploy.RootConfig.RebalanceTarget": "chaos: the region chaos schedules steer which region adopts a departing shard",
	"deploy.RetryConfig.BaseDelay":      "chaos: the fault-injection suites compress the backoff to milliseconds",
	"deploy.RetryConfig.MaxDelay":       "chaos: the fault-injection suites compress the backoff cap",
	"deploy.RetryConfig.ResumeWait":     "chaos: the kill/resume suites bound how long a session waits for its peer to come back",
	"figures.Options.Clock":             "Fig. 14's y-axis is wall time; tests inject a fake clock to keep the harness deterministic",

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
		if !ok || strings.HasPrefix(name, "analysis") || name == "faults" {
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
