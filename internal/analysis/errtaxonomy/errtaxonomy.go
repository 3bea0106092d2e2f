// Package errtaxonomy keeps internal/deploy's transient-vs-fatal error
// taxonomy airtight. The retry/reconnect/resume machinery (PR 3) decides an
// error's fate by classifying it — ProtocolError and EdgeError are fatal,
// Transient recognizes retryable link failures — so an error that reaches a
// wire boundary unclassified silently becomes fatal and dodges the retry
// budget. The analyzer finds every errors.New and every fmt.Errorf that
// does not wrap with %w, and flags those constructed in wire-covered
// functions: functions that reach ReadMessage (or a connection's
// wireConn.readMessage), WriteMessage or Transient through same-package
// static calls (being one of the wire functions counts too). Pre-wire
// validation helpers that never touch the wire stay exempt, so constructors
// can keep returning plain config errors.
package errtaxonomy

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"github.com/carbonedge/carbonedge/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "errtaxonomy",
	Doc: "errors constructed on wire-covered paths (functions reaching " +
		"ReadMessage/WriteMessage/Transient through same-package calls) must be " +
		"classified: wrap with %w, or construct ProtocolError/EdgeError/Transientf " +
		"so retry machinery can tell transient from fatal",
	Run:    run,
	Global: true,
	Select: selectCovered,
}

// wireNames are the functions that anchor wire coverage, as they are keyed
// within their package: ReadMessage's per-connection form is a method.
var wireNames = [...]string{"ReadMessage", "wireConn.readMessage", "WriteMessage", "Transient"}

// selectCovered computes, over the merged program graph, the set of
// functions that reach a wire function through same-package static calls,
// and keeps only candidates constructed inside that set.
func selectCovered(g *analysis.Graph) func(string) (string, bool) {
	covered := make(map[string]bool)
	var queue []string
	mark := func(key string) {
		if key != "" && !covered[key] {
			covered[key] = true
			queue = append(queue, key)
		}
	}
	// Seeds: the wire functions themselves, and every function that calls a
	// same-package wire function directly.
	for key, f := range g.Funcs {
		if isWireKey(key, f.PkgPath) {
			mark(key)
			continue
		}
		for _, callee := range f.Calls {
			if isWireKey(callee, f.PkgPath) {
				mark(key)
				break
			}
		}
	}
	// Propagate to same-package callers: if f calls a covered same-package
	// function, f's errors travel the same retry paths.
	callers := make(map[string][]string)
	for key, f := range g.Funcs {
		for _, callee := range f.Calls {
			if cf := g.Funcs[callee]; cf != nil && cf.PkgPath == f.PkgPath {
				callers[callee] = append(callers[callee], key)
			}
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, caller := range callers[cur] {
			mark(caller)
		}
	}
	return func(funcKey string) (string, bool) {
		return "", covered[funcKey]
	}
}

// isWireKey reports whether key names a package-level wire function in pkg.
func isWireKey(key, pkgPath string) bool {
	for _, name := range wireNames {
		if key == pkgPath+"."+name {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			checkConstructions(pass, fd, analysis.FuncKeyOf(obj))
		}
	}
	return nil, nil
}

func checkConstructions(pass *analysis.Pass, fd *ast.FuncDecl, funcKey string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		switch fn.FullName() {
		case "errors.New":
			pass.Report(analysis.Diagnostic{
				Pos: call.Pos(),
				Message: "errors.New constructs an unclassified error on a wire-covered path; " +
					"use ProtocolError/EdgeError or Transientf so retry machinery can classify it",
				FuncKey: funcKey,
			})
		case "fmt.Errorf":
			if len(call.Args) == 0 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
			if !ok {
				pass.Report(analysis.Diagnostic{
					Pos: call.Pos(),
					Message: "fmt.Errorf with a non-literal format on a wire-covered path; " +
						"the analyzer cannot prove it wraps with %w — use a literal format or a classified constructor",
					FuncKey: funcKey,
				})
				return true
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil || strings.Contains(format, "%w") {
				return true
			}
			pass.Report(analysis.Diagnostic{
				Pos: call.Pos(),
				Message: "fmt.Errorf without %w constructs an unclassified error on a wire-covered path; " +
					"wrap a classified error with %w or use ProtocolError/EdgeError/Transientf",
				FuncKey: funcKey,
			})
		}
		return true
	})
}
