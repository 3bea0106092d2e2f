// Package simdcover makes the SIMD bit-identity contract structural. Every
// assembly-declared kernel (a bodyless func declaration, e.g. in
// simd_amd64.go) must be covered twice:
//
//   - a generic fallback — a bodied function with an identical signature —
//     must exist in the same package, either in a file built on every
//     architecture (no build constraint, no GOOS/GOARCH file-name suffix:
//     simd_portable.go's stepGo covers stepAVX2; the stronger guarantee,
//     since every build then compiles the very same loop) or in a
//     build-tag-excluded file (simd_generic.go), so other builds keep the
//     kernel semantics — names may differ, since kernels dispatch through
//     wrappers;
//   - some simd*_test.go in the package must reference the kernel by name,
//     pinning it against the scalar reference bit for bit.
//
// The check is architecture-universal: kernels declared in files the
// current build excludes (an arm64 NEON tier analyzed from an amd64 host,
// and vice versa) are raw-parsed from disk and held to the same two rules,
// so adding a tier for another architecture cannot silently skip the
// contract. An excluded kernel's build-tagged fallback must live in a
// different file than the kernel's own declaration file — a dispatch wrapper
// beside the declaration is part of the same excluded build, not a fallback
// (a file built everywhere is never the kernel's own).
//
// The analyzer reads the excluded files and test files straight from disk
// (they are, by construction, outside the loaded build), compares
// signatures textually, and reports kernels whose fallback or equivalence
// test is missing. Kernels with no meaningful scalar twin (register-tiled
// drivers that fall back through a different code path, CPU feature probes)
// carry //lint:allow simdcover <reason> — for excluded files, on the
// declaration's own line or the line above, resolved here since the
// carbonlint suppression pass only sees loaded files.
package simdcover

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"github.com/carbonedge/carbonedge/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "simdcover",
	Doc: "every asm-declared kernel needs a generic fallback with an identical " +
		"signature (in a file built on every architecture, or a build-tagged " +
		"one) and a simd*_test.go reference pinning bit-for-bit equivalence " +
		"with the scalar semantics",
	Run: run,
}

func run(pass *analysis.Pass) error {
	var kernels []*ast.FuncDecl
	loaded := make(map[string]bool)
	// portable holds the signatures of the bodied functions declared in
	// loaded files that every architecture builds.
	portable := make(map[string]bool)
	dir := ""
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		loaded[filepath.Base(name)] = true
		if dir == "" {
			dir = filepath.Dir(name)
		}
		everywhere := builtEverywhere(name, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Body == nil {
				kernels = append(kernels, fd)
			} else if everywhere && fd.Recv == nil {
				portable[renderFuncType(fd.Type)] = true
			}
		}
	}
	if dir == "" {
		return nil
	}

	scan, err := scanPackageDir(dir, loaded, pass.Fset)
	if err != nil {
		return err
	}
	if len(kernels) == 0 && len(scan.kernels) == 0 {
		return nil
	}
	for _, fd := range kernels {
		sig := renderFuncType(fd.Type)
		if !portable[sig] && len(scan.fallbacks[sig]) == 0 {
			pass.Reportf(fd.Pos(),
				"asm-declared %s has no generic fallback with signature %s, neither in a file built on every architecture nor in a build-tagged one; other builds lose the kernel semantics",
				fd.Name.Name, sig)
		}
		if !scan.testIdents[fd.Name.Name] {
			pass.Reportf(fd.Pos(),
				"asm-declared %s is not referenced by any simd*_test.go; add an equivalence test pinning it against the scalar reference",
				fd.Name.Name)
		}
	}
	for _, k := range scan.kernels {
		sig := renderFuncType(k.decl.Type)
		if !portable[sig] && !fallbackOutside(scan.fallbacks[sig], k.file) {
			pass.Reportf(k.decl.Pos(),
				"asm-declared %s (excluded from this build) has no generic fallback with signature %s outside its own file, neither in a file built on every architecture nor in a build-tagged one; other-architecture builds lose the kernel semantics",
				k.decl.Name.Name, sig)
		}
		if !scan.testIdents[k.decl.Name.Name] {
			pass.Reportf(k.decl.Pos(),
				"asm-declared %s (excluded from this build) is not referenced by any simd*_test.go; add an equivalence test pinning it against the scalar reference",
				k.decl.Name.Name)
		}
	}
	return nil
}

// builtEverywhere reports whether a loaded file is part of the package on
// every GOOS/GOARCH: it carries no build constraint line, and its name
// carries no implicit one. The name test needs no table of known platforms —
// a _GOOS/_GOARCH suffix matches at most one GOOS and one GOARCH, so a name
// that go/build accepts under two targets sharing neither has none.
func builtEverywhere(path string, f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if constraint.IsGoBuild(c.Text) || constraint.IsPlusBuild(c.Text) {
				return false
			}
		}
	}
	dir, name := filepath.Split(path)
	for _, target := range [][2]string{{"linux", "amd64"}, {"plan9", "riscv64"}} {
		ctx := build.Default
		ctx.GOOS, ctx.GOARCH = target[0], target[1]
		if ok, err := ctx.MatchFile(dir, name); err != nil || !ok {
			return false
		}
	}
	return true
}

// fallbackOutside reports whether sig's fallback set contains a file other
// than the kernel's own declaration file.
func fallbackOutside(files map[string]bool, own string) bool {
	for f := range files {
		if f != own {
			return true
		}
	}
	return false
}

// extKernel is a bodyless declaration found in a build-tag-excluded file:
// an asm kernel of another architecture, held to the same coverage rules.
type extKernel struct {
	decl *ast.FuncDecl
	file string // base name of the declaring file
}

type packageScan struct {
	// fallbacks maps a canonical signature to the set of excluded files
	// declaring a bodied function with it.
	fallbacks map[string]map[string]bool
	// testIdents is every identifier referenced by any simd*_test.go,
	// loaded or not (arm64 test files pin arm64 kernels; the reference
	// check must see them from any host).
	testIdents map[string]bool
	// kernels are the bodyless declarations of excluded files, minus those
	// carrying a //lint:allow simdcover directive.
	kernels []extKernel
}

// scanPackageDir raw-parses the package files outside the loaded build:
// build-tag-excluded sources contribute fallback signatures and
// other-architecture kernel declarations, simd*_test.go files contribute
// the referenced identifier set. Excluded files are parsed into the pass's
// FileSet so reported positions point at the real declaration.
func scanPackageDir(dir string, loaded map[string]bool, fset *token.FileSet) (*packageScan, error) {
	scan := &packageScan{
		fallbacks:  make(map[string]map[string]bool),
		testIdents: make(map[string]bool),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		isSimdTest := isTest && strings.HasPrefix(name, "simd")
		if loaded[name] || (isTest && !isSimdTest) {
			continue
		}
		f, perr := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			continue // a file the build also can't read is not this analyzer's finding
		}
		if isSimdTest {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					scan.testIdents[id.Name] = true
				}
				return true
			})
			continue
		}
		allowed := allowLines(fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			if fd.Body != nil {
				sig := renderFuncType(fd.Type)
				if scan.fallbacks[sig] == nil {
					scan.fallbacks[sig] = make(map[string]bool)
				}
				scan.fallbacks[sig][name] = true
				continue
			}
			line := fset.Position(fd.Pos()).Line
			if allowed[line] || allowed[line-1] {
				continue
			}
			scan.kernels = append(scan.kernels, extKernel{decl: fd, file: name})
		}
	}
	return scan, nil
}

// allowLines collects the lines of f carrying a //lint:allow simdcover
// directive (a nested "//" ends the payload, mirroring the carbonlint
// suppression grammar). Excluded files never reach the normal suppression
// pass — it only sees loaded syntax — so the analyzer resolves its own
// directives here. A directive covers its own line and the line below, like
// suppression everywhere else.
func allowLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue
			}
			text, _, _ = strings.Cut(text, "//")
			fields := strings.Fields(text)
			if len(fields) >= 3 && fields[0] == "lint:allow" && fields[1] == "simdcover" {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// renderFuncType canonicalizes a signature as "(types...)(results...)" with
// parameter names dropped, so declarations can be compared across files
// without type information (the excluded files have none by definition).
func renderFuncType(ft *ast.FuncType) string {
	var b strings.Builder
	b.WriteByte('(')
	writeFieldTypes(&b, ft.Params)
	b.WriteString(")(")
	writeFieldTypes(&b, ft.Results)
	b.WriteByte(')')
	return b.String()
}

func writeFieldTypes(b *strings.Builder, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	first := true
	for _, f := range fl.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		var buf bytes.Buffer
		printer.Fprint(&buf, token.NewFileSet(), f.Type)
		ts := buf.String()
		for i := 0; i < n; i++ {
			if !first {
				b.WriteByte(',')
			}
			b.WriteString(ts)
			first = false
		}
	}
}
