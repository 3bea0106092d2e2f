package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Call-graph layer: a whole-program, type-aware static call graph over the
// loaded packages, built once per carbonlint run by BuildGraph and handed to
// every Pass. BuildGraph also computes the hot set (everything reachable
// from a //lint:hotroot root) once, since the hot/cold directives are the
// framework's own.
//
// Resolution is deliberately conservative:
//
//   - Static calls (pkg.F(), x.Method() on a concrete receiver, T.Method(x))
//     produce one edge to the named function.
//   - Interface method calls (on the interface, on a struct embedding it, or
//     on a type parameter it constrains) produce an edge to the method that
//     each type declared in the loaded packages, local types included, runs
//     for it when the type's pointer method set implements the interface.
//     Methods compare as name and signature strings: a package checked from
//     source and the same package read from export data are distinct
//     types.Type values.
//   - Dynamic calls through function values (fields, parameters, variables,
//     slice and map elements, method values) produce edges to every function
//     whose value is taken anywhere in the program, package-level
//     initializers included, with a matching signature; function literals
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

// A GraphFunc is one analyzed function's node in the program call graph.
// Callees are named by key, not by pointer, so a package is walked without
// seeing any other.
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
	// Calls lists static callee keys (including external ones, which simply
	// have no node and act as leaves).
	Calls []string
	// Dispatch lists the keys of the methods this function's interface calls
	// run, resolved by implementation. errtaxonomy's same-package walk reads
	// Calls alone, so these stay apart.
	Dispatch []string
	// DynCalls lists the signatures of calls through function values.
	DynCalls []string
	// TakesAddr lists the keys of the functions whose value this function's
	// body takes — the candidate targets of dynamic calls.
	TakesAddr []string
}

// Graph is the whole-program call graph.
type Graph struct {
	// Funcs indexes every analyzed function by canonical key.
	Funcs map[string]*GraphFunc

	impls     []methodSet         // of every declared non-interface type
	addrIndex map[string][]string // signature -> address-taken keys
	hot       map[string]string   // Reachable from the //lint:hotroot roots
}

// A methodSet is one type's pointer method set by method name.
type methodSet map[string]implMethod

// implMethod is one method of a methodSet: its signature (sigString) and the
// key of the function that runs it, promoted from an embedded type or not.
type implMethod struct{ sig, key string }

// BuildGraph walks every package into one program graph, computes its hot
// set, and returns the walk's directive-hygiene findings.
func BuildGraph(pkgs []*Package) (*Graph, []Finding) {
	g := &Graph{
		Funcs:     make(map[string]*GraphFunc),
		addrIndex: make(map[string][]string),
	}
	// Interface calls resolve against the types of every package, so their
	// method sets are known before any body is walked.
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				g.impls = append(g.impls, methodSetOf(types.NewPointer(tn.Type())))
			}
		}
	}
	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, g.addPackage(pkg)...)
	}
	var roots []string
	for k, f := range g.Funcs {
		if f.Hotroot {
			roots = append(roots, k)
		}
	}
	// Sorted, so traversal (and therefore reported paths) is deterministic.
	slices.Sort(roots)
	for sig, targets := range g.addrIndex {
		slices.Sort(targets)
		g.addrIndex[sig] = slices.Compact(targets)
	}
	g.hot = g.Reachable(roots)
	return g, findings
}

// Reachable computes the set of functions reachable from roots, never
// entering or traversing functions marked //lint:cold. It maps every reached
// function to the function that first reached it in deterministic BFS order
// ("" for a root), from which HotPath reconstructs example chains.
func (g *Graph) Reachable(roots []string) map[string]string {
	parent := make(map[string]string)
	queue := make([]string, 0, len(roots))
	for _, r := range roots {
		f := g.Funcs[r]
		if _, seen := parent[r]; f == nil || f.Cold || seen {
			continue
		}
		parent[r] = ""
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		f := g.Funcs[cur]
		callees := append(append([]string(nil), f.Calls...), f.Dispatch...)
		for _, sig := range f.DynCalls {
			callees = append(callees, g.addrIndex[sig]...)
		}
		for _, next := range callees {
			nf := g.Funcs[next]
			if _, seen := parent[next]; nf == nil || nf.Cold || seen {
				continue
			}
			parent[next] = cur
			queue = append(queue, next)
		}
	}
	return parent
}

// HotPath reports whether the function keyed key is hot — reachable from a
// //lint:hotroot root without entering a //lint:cold function — and renders
// an example root→key chain of display names, e.g. "Shard.Step → safeStep →
// scenarioStepper.Step". Long chains elide the middle.
func (g *Graph) HotPath(key string) (string, bool) {
	if _, hot := g.hot[key]; !hot {
		return "", false
	}
	var chain []string
	for cur := key; cur != ""; cur = g.hot[cur] {
		chain = append([]string{g.Funcs[cur].Display}, chain...)
	}
	if len(chain) > 5 {
		chain = append(chain[:2:2], "…", chain[len(chain)-2], chain[len(chain)-1])
	}
	return strings.Join(chain, " → "), true
}

// FuncKeyOf returns the canonical call-graph key for fn ("pkg.Name" or
// "pkg.Recv.Name"), the key of its node in Graph.Funcs.
func FuncKeyOf(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	return pkg + "." + displayNameOf(fn.Origin())
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

// methodSetOf indexes the method set of t by name.
func methodSetOf(t types.Type) methodSet {
	mset := types.NewMethodSet(t)
	ms := make(methodSet, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		fn := mset.At(i).Obj().(*types.Func)
		ms[fn.Name()] = implMethod{sig: sigString(fn.Type().(*types.Signature)), key: FuncKeyOf(fn)}
	}
	return ms
}

// implementations returns the sorted keys of the methods a call of method
// name on iface can run: that method of every type whose method set has each
// of iface's methods with the same signature.
func (g *Graph) implementations(iface *types.Interface, name string) []string {
	want, keys := methodSetOf(iface), []string(nil)
next:
	for _, ms := range g.impls {
		for wname, w := range want {
			if ms[wname].sig != w.sig {
				continue next
			}
		}
		keys = append(keys, ms[name].key)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// addPackage walks one package's functions into the graph and returns its
// directive-hygiene diagnostics (misplaced or malformed hotroot/cold
// directives), reported under the "allow" pseudo-analyzer alongside the
// suppression engine's own hygiene findings.
func (g *Graph) addPackage(pkg *Package) []Finding {
	var findings []Finding
	consumed := make(map[*ast.Comment]bool)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				// A function value a package-level initializer takes may
				// be called from anywhere.
				g.collectCalls(pkg, decl, &GraphFunc{})
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			gf := &GraphFunc{
				Key:     FuncKeyOf(obj),
				PkgPath: pkg.PkgPath,
				Display: displayNameOf(obj),
				Pos:     pkg.Fset.Position(fd.Pos()),
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
				g.collectCalls(pkg, fd.Body, gf)
			}
			g.Funcs[gf.Key] = gf
		}
		// Directive hygiene: hotroot/cold comments anywhere other than a
		// function declaration's doc comment mark nothing and rot silently —
		// report them like the suppression engine reports malformed allows.
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
	return findings
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

// collectCalls records the call edges and address-taken function values
// (indexed by signature too) in one function body or package-level
// declaration, nested function literals included — their calls belong to the
// enclosing declaration. The walk is pre-order, so a CallExpr is classified
// before its Fun expression is visited; the later visit of the same node then
// knows the reference was a call, not a value use.
//
// Function literals are deliberately NOT modeled as dynamic-call targets:
// treating "some func() value is invoked" as reaching every closure in the
// program (keyed by its encloser) collapses the graph — main and every
// other closure-holding function becomes reachable from any hot deferred
// call. Instead a literal's statements are attributed to its encloser at
// the creation site, and dynamic func-value calls resolve only to named
// address-taken functions.
func (g *Graph) collectCalls(pkg *Package, node ast.Node, gf *GraphFunc) {
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
			key, s := FuncKeyOf(fn), sigString(sig)
			gf.TakesAddr = append(gf.TakesAddr, key)
			g.addrIndex[s] = append(g.addrIndex[s], key)
		}
	}

	classifyCall := func(call *ast.CallExpr) {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return // conversion, not a call
		}
		fun := ast.Unparen(call.Fun)
		switch e := fun.(type) {
		case *ast.IndexExpr: // generic instantiation f[T](...), not s[i]() or m[k]()
			if _, ok := info.TypeOf(e.X).(*types.Signature); ok {
				fun = ast.Unparen(e.X)
			}
		case *ast.IndexListExpr:
			fun = ast.Unparen(e.X)
		}
		switch fun := fun.(type) {
		case *ast.Ident:
			switch obj := info.Uses[fun].(type) {
			case *types.Func:
				inCall[fun] = true
				gf.Calls = append(gf.Calls, FuncKeyOf(obj))
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
				case types.MethodVal, types.MethodExpr: // a method's Obj is a *types.Func
					if iface := dispatchIface(sel); iface != nil {
						gf.Dispatch = append(gf.Dispatch, g.implementations(iface, sel.Obj().Name())...)
					} else {
						gf.Calls = append(gf.Calls, FuncKeyOf(sel.Obj().(*types.Func)))
					}
				case types.FieldVal:
					addDyn(sel.Type())
				}
			} else if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
				gf.Calls = append(gf.Calls, FuncKeyOf(obj)) // pkg.F(...)
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

	ast.Inspect(node, func(n ast.Node) bool {
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
					if fn, ok := sel.Obj().(*types.Func); ok && dispatchIface(sel) == nil {
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

// dispatchIface returns the interface a method selection dispatches through,
// nil for a concrete method: the selector's type, or the interface field a
// struct embeds the method through; not the interface declaring the method.
func dispatchIface(sel *types.Selection) *types.Interface {
	t, path := sel.Recv(), sel.Index()
	for _, i := range path[:len(path)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		t = t.Underlying().(*types.Struct).Field(i).Type()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}
