package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Call-graph layer: a whole-program, type-aware static call graph over the
// loaded packages, built once per carbonlint run and consumed by the
// program-wide analyzers (hotalloc's hot-path reachability). Each package
// contributes a []*GraphFunc summary; MergeGraph stitches the summaries into
// one Graph.
//
// Resolution is deliberately conservative:
//
//   - Static calls (pkg.F(), x.Method() on a concrete receiver, T.Method(x))
//     produce one edge to the named function.
//   - Interface method calls produce edges to every analyzed method with the
//     same name and the same external signature (class-hierarchy analysis
//     keyed on name+signature: precise enough to separate
//     engine.EdgeStepper.Step from trading's unrelated Step methods).
//   - Dynamic calls through function values (fields, parameters, variables,
//     method values) produce edges to every function whose value is taken
//     anywhere in the program with a matching signature; function literals
//     passed around as values count as their enclosing declaration.
//
// Functions are keyed canonically as "pkgpath.Name" or
// "pkgpath.Receiver.Name"; keys computed from source-checked packages and
// from export data agree, which is what stitches cross-package edges.

// HotrootPrefix marks a function declaration as a hot-path root: everything
// statically reachable from it must satisfy the hotalloc contract. Written
// in the declaration's doc comment; an optional trailing note may say why.
//
//	//lint:hotroot steady-state slot stepping must not allocate
const HotrootPrefix = "lint:hotroot"

// ColdPrefix marks a function declaration as deliberately off the hot path:
// hotalloc neither checks its body nor traverses its callees. The reason is
// mandatory — pruning the reachability fence must explain itself.
//
//	//lint:cold wire stepper; the JSON framing allocates by design
const ColdPrefix = "lint:cold"

// A GraphFunc is one analyzed function's contribution to the program call
// graph. All fields are plain data: callees are named by key, not by pointer,
// so a package is summarized without seeing any other.
type GraphFunc struct {
	// Key is the canonical function key ("pkg.Name" or "pkg.Recv.Name").
	Key string
	// PkgPath is the declaring package's import path, so analyzers can
	// scope graph walks to package boundaries without re-parsing Key.
	PkgPath string
	// Display is the short human name used when printing call paths.
	Display string
	// Pos positions the declaration (for directive diagnostics).
	Pos token.Position
	// Hotroot and Cold record //lint:hotroot and //lint:cold directives on
	// the declaration.
	Hotroot bool
	Cold    bool
	// MethodSig is the name+signature index entry ("Name\x00(params)(results)")
	// when the function is a method — the CHA key interface calls resolve
	// against. Empty for plain functions.
	MethodSig string
	// Calls lists static callee keys (including external ones, which simply
	// have no node and act as leaves).
	Calls []string
	// IfaceCalls lists interface method call sites as name+signature entries.
	IfaceCalls []string
	// DynCalls lists the signatures of calls through function values.
	DynCalls []string
	// TakesAddr lists (key, signature) pairs of functions whose value this
	// function's body takes — the candidate targets of dynamic calls.
	TakesAddr []AddrRef
}

// AddrRef records one address-taken function value.
type AddrRef struct {
	Key string
	Sig string
}

// Graph is the merged whole-program call graph.
type Graph struct {
	// Funcs indexes every analyzed function by canonical key.
	Funcs map[string]*GraphFunc

	methodIndex map[string][]string // MethodSig -> keys
	addrIndex   map[string][]string // signature -> address-taken keys
}

// MergeGraph stitches per-package summaries into one program graph.
func MergeGraph(funcLists ...[]*GraphFunc) *Graph {
	g := &Graph{
		Funcs:       make(map[string]*GraphFunc),
		methodIndex: make(map[string][]string),
		addrIndex:   make(map[string][]string),
	}
	for _, funcs := range funcLists {
		for _, f := range funcs {
			g.Funcs[f.Key] = f
		}
	}
	// Indexes are built over the deduplicated node set, in sorted order so
	// traversal (and therefore reported paths) is deterministic.
	keys := make([]string, 0, len(g.Funcs))
	for k := range g.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seenAddr := make(map[AddrRef]bool)
	for _, k := range keys {
		f := g.Funcs[k]
		if f.MethodSig != "" {
			g.methodIndex[f.MethodSig] = append(g.methodIndex[f.MethodSig], f.Key)
		}
		for _, ref := range f.TakesAddr {
			if seenAddr[ref] {
				continue
			}
			seenAddr[ref] = true
			g.addrIndex[ref.Sig] = append(g.addrIndex[ref.Sig], ref.Key)
		}
	}
	for _, targets := range g.addrIndex {
		sort.Strings(targets)
	}
	return g
}

// HotRoots returns the keys of every //lint:hotroot function, sorted.
func (g *Graph) HotRoots() []string {
	var roots []string
	for k, f := range g.Funcs {
		if f.Hotroot {
			roots = append(roots, k)
		}
	}
	sort.Strings(roots)
	return roots
}

// Reachable computes the set of functions reachable from roots, never
// entering or traversing functions marked //lint:cold. The returned parent
// map contains, for every reached non-root function, the function that first
// reached it in deterministic BFS order — CallPath reconstructs example
// chains from it.
func (g *Graph) Reachable(roots []string) (reached map[string]bool, parent map[string]string) {
	reached = make(map[string]bool)
	parent = make(map[string]string)
	queue := make([]string, 0, len(roots))
	for _, r := range roots {
		f := g.Funcs[r]
		if f == nil || f.Cold || reached[r] {
			continue
		}
		reached[r] = true
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		f := g.Funcs[cur]
		if f == nil {
			continue
		}
		var callees []string
		callees = append(callees, f.Calls...)
		for _, ms := range f.IfaceCalls {
			callees = append(callees, g.methodIndex[ms]...)
		}
		for _, sig := range f.DynCalls {
			callees = append(callees, g.addrIndex[sig]...)
		}
		for _, next := range callees {
			nf := g.Funcs[next]
			if nf == nil || nf.Cold || reached[next] {
				continue
			}
			reached[next] = true
			parent[next] = cur
			queue = append(queue, next)
		}
	}
	return reached, parent
}

// CallPath renders an example root→fn chain from a Reachable parent map,
// using display names, e.g. "Shard.Step → safeStep → scenarioStepper.Step".
// Long chains elide the middle.
func (g *Graph) CallPath(parent map[string]string, key string) string {
	var chain []string
	for cur := key; cur != ""; cur = parent[cur] {
		name := cur
		if f := g.Funcs[cur]; f != nil {
			name = f.Display
		}
		chain = append(chain, name)
		if len(chain) > 32 {
			break // defensive: parent maps from Reachable are acyclic
		}
	}
	// chain is fn..root; reverse it.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	if len(chain) > 5 {
		chain = append(chain[:2:2], append([]string{"…"}, chain[len(chain)-2:]...)...)
	}
	return strings.Join(chain, " → ")
}

// funcKeyOf returns the canonical key for a function object, or "" when the
// object has no sensible key (builtins).
func funcKeyOf(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			return pkg + "." + name + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

// displayNameOf is the short human form of a function ("Recv.Name" / "Name").
func displayNameOf(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			return name + "." + fn.Name()
		}
	}
	return fn.Name()
}

// recvTypeName names a method receiver's defined type ("" if unnamed).
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return recvTypeName(types.Unalias(t))
	}
	return ""
}

// pathQualifier prints named types with their full package path, so
// signatures computed from source-checked packages and from export data
// render identically.
func pathQualifier(p *types.Package) string { return p.Path() }

// sigString renders a function signature's external shape —
// "(params)(results)", receiver excluded — the form interface-call CHA and
// dynamic-call matching compare.
func sigString(sig *types.Signature) string {
	var b strings.Builder
	b.WriteByte('(')
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		t := params.At(i).Type()
		if sig.Variadic() && i == params.Len()-1 {
			b.WriteString("...")
			if s, ok := t.(*types.Slice); ok {
				t = s.Elem()
			}
		}
		b.WriteString(types.TypeString(t, pathQualifier))
	}
	b.WriteString(")(")
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(results.At(i).Type(), pathQualifier))
	}
	b.WriteByte(')')
	return b.String()
}

// methodSigOf builds the CHA index entry for a method object.
func methodSigOf(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	return fn.Name() + "\x00" + sigString(sig)
}

// buildGraphFuncs walks one package and returns its call-graph summary plus
// directive-hygiene diagnostics (misplaced or malformed hotroot/cold
// directives), reported under the "allow" pseudo-analyzer alongside the
// suppression engine's own hygiene findings.
func buildGraphFuncs(pkg *Package) ([]*GraphFunc, []Finding) {
	var funcs []*GraphFunc
	var findings []Finding
	consumed := make(map[*ast.Comment]bool)

	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			gf := &GraphFunc{
				Key:     funcKeyOf(obj),
				PkgPath: pkg.PkgPath,
				Display: displayNameOf(obj),
				Pos:     pkg.Fset.Position(fd.Pos()),
			}
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				gf.MethodSig = methodSigOf(obj)
			}
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					switch text, kind := directiveText(c); kind {
					case HotrootPrefix:
						consumed[c] = true
						gf.Hotroot = true
					case ColdPrefix:
						consumed[c] = true
						if strings.TrimSpace(text) == "" {
							findings = append(findings, Finding{
								Analyzer: "allow",
								Pos:      pkg.Fset.Position(c.Pos()),
								Message:  "malformed directive: missing reason: write //lint:cold <why this function is off the hot path>",
							})
							continue
						}
						gf.Cold = true
					}
				}
			}
			if fd.Body != nil {
				collectCalls(pkg, fd.Body, gf)
			}
			funcs = append(funcs, gf)
		}
	}

	// Directive hygiene: hotroot/cold comments anywhere other than a
	// function declaration's doc comment mark nothing and rot silently —
	// report them like the suppression engine reports malformed allows.
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if consumed[c] {
					continue
				}
				if _, kind := directiveText(c); kind != "" {
					findings = append(findings, Finding{
						Analyzer: "allow",
						Pos:      pkg.Fset.Position(c.Pos()),
						Message: "misplaced //" + kind + " directive: it must appear in a " +
							"function declaration's doc comment to mark that function",
					})
				}
			}
		}
	}
	return funcs, findings
}

// directiveText extracts the payload of a hotroot/cold directive comment,
// returning the directive kind ("" when c is not one).
func directiveText(c *ast.Comment) (text, kind string) {
	body, ok := commentDirectiveBody(c)
	if !ok {
		return "", ""
	}
	if rest, ok := cutDirective(body, HotrootPrefix); ok {
		return rest, HotrootPrefix
	}
	if rest, ok := cutDirective(body, ColdPrefix); ok {
		return rest, ColdPrefix
	}
	return "", ""
}

// collectCalls records the call edges and address-taken function values in
// one function body (nested function literals included — their calls belong
// to the enclosing declaration). The walk is pre-order, so a CallExpr is
// classified before its Fun expression is visited; the later visit of the
// same node then knows the reference was a call, not a value use.
//
// Function literals are deliberately NOT modeled as dynamic-call targets:
// treating "some func() value is invoked" as reaching every closure in the
// program (keyed by its encloser) collapses the graph — main and every
// other closure-holding function becomes reachable from any hot deferred
// call. Instead a literal's statements are attributed to its encloser at
// the creation site, and dynamic func-value calls resolve only to named
// address-taken functions.
func collectCalls(pkg *Package, body *ast.BlockStmt, gf *GraphFunc) {
	info := pkg.Info
	inCall := make(map[ast.Expr]bool)
	selSel := make(map[*ast.Ident]bool)

	addDyn := func(t types.Type) {
		if t == nil {
			return
		}
		if sig, ok := t.Underlying().(*types.Signature); ok {
			gf.DynCalls = append(gf.DynCalls, sigString(sig))
		}
	}
	takeAddr := func(fn *types.Func, valueType types.Type) {
		if sig, ok := valueType.Underlying().(*types.Signature); ok {
			gf.TakesAddr = append(gf.TakesAddr, AddrRef{Key: funcKeyOf(fn), Sig: sigString(sig)})
		}
	}

	classifyCall := func(call *ast.CallExpr) {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return // conversion, not a call
		}
		fun := ast.Unparen(call.Fun)
		switch e := fun.(type) {
		case *ast.IndexExpr: // generic instantiation f[T](...)
			fun = ast.Unparen(e.X)
		case *ast.IndexListExpr:
			fun = ast.Unparen(e.X)
		}
		switch fun := fun.(type) {
		case *ast.Ident:
			switch obj := info.Uses[fun].(type) {
			case *types.Func:
				inCall[fun] = true
				gf.Calls = append(gf.Calls, funcKeyOf(obj))
			case *types.Builtin, *types.TypeName, nil:
				// builtins and conversions contribute no edges
			default:
				// call through a variable of function type
				addDyn(obj.Type())
			}
		case *ast.SelectorExpr:
			inCall[fun] = true
			if sel, ok := info.Selections[fun]; ok {
				switch sel.Kind() {
				case types.MethodVal:
					callee, _ := sel.Obj().(*types.Func)
					switch {
					case callee == nil:
					case isAbstract(sel.Recv()):
						gf.IfaceCalls = append(gf.IfaceCalls, methodSigOf(callee))
					default:
						gf.Calls = append(gf.Calls, funcKeyOf(callee))
					}
				case types.MethodExpr:
					if callee, ok := sel.Obj().(*types.Func); ok {
						gf.Calls = append(gf.Calls, funcKeyOf(callee))
					}
				case types.FieldVal:
					addDyn(sel.Type())
				}
			} else if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
				gf.Calls = append(gf.Calls, funcKeyOf(obj)) // pkg.F(...)
			} else {
				addDyn(info.TypeOf(fun)) // package-qualified var of func type
			}
		case *ast.FuncLit:
			// immediately invoked; its body is walked as part of this
			// declaration, so the edge is implicit
		default:
			// f()(), m[k](), and friends: a dynamic call through whatever
			// function value the expression produces.
			addDyn(info.TypeOf(call.Fun))
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			classifyCall(n)
		case *ast.SelectorExpr:
			selSel[n.Sel] = true
			if inCall[n] {
				break
			}
			if sel, ok := info.Selections[n]; ok {
				if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
					if fn, ok := sel.Obj().(*types.Func); ok && !isAbstract(sel.Recv()) {
						takeAddr(fn, sel.Type())
					}
				}
			} else if fn, ok := info.Uses[n.Sel].(*types.Func); ok {
				takeAddr(fn, fn.Type())
			}
		case *ast.Ident:
			if inCall[n] || selSel[n] {
				break
			}
			if fn, ok := info.Uses[n].(*types.Func); ok {
				takeAddr(fn, fn.Type())
			}
		}
		return true
	})
}

// isAbstract reports whether a method receiver type is an interface or a
// type parameter — i.e. the call dispatches dynamically and must be
// resolved by name+signature against every analyzed method.
func isAbstract(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.(*types.TypeParam); ok {
		return true
	}
	return types.IsInterface(t)
}

// FuncKeyOf returns the canonical call-graph key for fn ("pkg.Name" or
// "pkg.Recv.Name") — the value a global analyzer stores in
// Diagnostic.FuncKey so merge-time Select can place the diagnostic in the
// program call graph.
func FuncKeyOf(fn *types.Func) string { return funcKeyOf(fn) }
