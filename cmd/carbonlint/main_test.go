package main

import (
	"go/ast"
	"go/types"
	"strings"
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

// TestRepoIsClean makes the invariant gate part of the tier-1 suite: the
// repository must lint clean, so a violation breaks `go test ./...` too,
// not just `make lint`. Fix the finding or annotate it with
// //lint:allow <analyzer> <reason> (see DESIGN.md "Static invariants").
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list -export")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.RunAnalyzers(pkgs, All)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
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

	"nn.Network.OutDim":                    "instrument: class count read by the batch-equivalence and architecture tests",
	"nn.QuantizedNetwork.OutDim":           "instrument: logit width read by the qnetwork tests",
	"nn.QuantizedNetwork.ParamBytes":       "instrument: resident size TestRecompileMatchesFreshCompile compares",
	"models.TrainedZoo.ResidentParamBytes": "instrument: resident-memory check of TestQuantizedZooSharesInt8Storage",
	"models.SurrogateZoo.MeanAccuracy":     "models.Zoo method; examples/accuracy calls TrainedZoo's",
	"bandit.UCB2.Selections":               "instrument: pull counts read by TestUCB2SelectionsAccounting",
	"bandit.UCB2.Switches":                 "instrument: switch count read by TestUCB2LogarithmicSwitches",
	"trading.LyapunovTrader.Queue":         "instrument: virtual queue read by TestLyapunovQueueDynamics",

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
	if testing.Short() {
		t.Skip("shells out to go list -export")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	const internal = "github.com/carbonedge/carbonedge/internal/"
	var lists [][]*analysis.GraphFunc
	var roots []string
	for _, pkg := range pkgs {
		s, err := analysis.Summarize(pkg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range s.Funcs {
			f.Cold = false // hotalloc's pruning mark; cold code still ships
			for _, ref := range f.TakesAddr {
				f.Calls = append(f.Calls, ref.Key) // a value handed to the stdlib is called there
			}
			if f.Display == "init" || f.Display == "main" && pkg.Types.Name() == "main" {
				roots = append(roots, f.Key)
			}
		}
		lists = append(lists, s.Funcs)
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
	graph := analysis.MergeGraph(lists...)
	shipped, _ := graph.Reachable(roots)
	for name := range keptForTests {
		switch key := internal + name; {
		case graph.Funcs[key] == nil:
			t.Errorf("keptForTests names %s, which no longer exists", name)
		case shipped[key]:
			t.Errorf("keptForTests names %s, which a binary now reaches: drop the entry", name)
		}
		roots = append(roots, internal+name)
	}
	reached, _ := graph.Reachable(roots)
	for key, f := range graph.Funcs {
		name, ok := strings.CutPrefix(key, internal)
		if !ok || strings.HasPrefix(name, "analysis") || strings.HasPrefix(name, "faults.") || reached[key] {
			continue
		}
		t.Errorf("%s: %s is reached by no binary: delete it with its tests, or add it to keptForTests with the reason", f.Pos, name)
	}
}
