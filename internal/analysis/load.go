package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package bundles everything the runner needs about one loaded package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` for the patterns and decodes the
// JSON stream. Export data is compiled into the build cache as a side
// effect, which is exactly what makeResolver consumes.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// errListed formats a `go list` per-package error.
func errListed(lp *listedPackage) error {
	return fmt.Errorf("analysis: go list: %s: %s", lp.ImportPath, lp.Error.Err)
}

// makeResolver builds a types.Importer that satisfies imports from the
// export data `go list -export` wrote to the build cache. This is the same
// mechanism `go vet` uses: only the package under analysis is type-checked
// from source; every dependency — stdlib included — is loaded from its
// compiled export file, so analysis works offline and without x/tools.
func makeResolver(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// typeCheck type-checks one package's parsed files.
func typeCheck(fset *token.FileSet, imp types.Importer, pkgPath, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var tcErrs []error
	cfg := &types.Config{
		Importer: imp,
		Error:    func(err error) { tcErrs = append(tcErrs, err) },
	}
	tpkg, _ := cfg.Check(pkgPath, fset, files, info)
	if len(tcErrs) > 0 {
		msgs := make([]string, 0, len(tcErrs))
		for _, e := range tcErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type-checking %s:\n\t%s", pkgPath, strings.Join(msgs, "\n\t"))
	}
	return &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// Load lists the packages matching patterns (relative to dir, e.g. "./...")
// and returns them parsed and fully type-checked, sorted by import path.
// Test files are excluded: the determinism invariants carbonlint enforces
// govern what ships, and tests legitimately use ad-hoc seeds and wall-clock
// timeouts.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []*listedPackage
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, errListed(lp)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && !lp.Standard {
			targets = append(targets, lp)
		}
	}
	fset := token.NewFileSet()
	imp := makeResolver(fset, exports)
	pkgs := make([]*Package, 0, len(targets))
	for _, lp := range targets {
		if len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		pkg, err := typeCheck(fset, imp, lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// LoadTestdata parses and type-checks testdata packages for analyzertest.
// Each rel is a path under filepath.Join(testdata, "src") and becomes the
// package's PkgPath verbatim, so a testdata package placed at
// src/internal/numeric exercises path-based analyzer exemptions. Imports
// are resolved by shelling out to `go list -export` from moduleDir, so
// testdata may import the standard library and the enclosing module alike.
func LoadTestdata(moduleDir, testdata string, rels ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	type parsed struct {
		rel, dir string
		files    []*ast.File
	}
	imports := make(map[string]bool)
	var all []parsed
	for _, rel := range rels {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(rel))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("analysis: testdata package %q: %v", rel, err)
		}
		p := parsed{rel: rel, dir: dir}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			// Honor build constraints (//go:build tags and _GOOS/_GOARCH
			// file suffixes) exactly as `go list` would, so testdata can
			// carry e.g. an amd64 asm declaration alongside its !amd64
			// generic fallback without declaring the symbol twice.
			if match, err := build.Default.MatchFile(dir, e.Name()); err != nil || !match {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: parsing testdata %s/%s: %v", rel, e.Name(), err)
			}
			for _, spec := range f.Imports {
				imports[strings.Trim(spec.Path.Value, `"`)] = true
			}
			p.files = append(p.files, f)
		}
		if len(p.files) == 0 {
			return nil, fmt.Errorf("analysis: testdata package %q has no Go files", rel)
		}
		all = append(all, p)
	}

	exports := make(map[string]string)
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		listed, err := goList(moduleDir, paths)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if lp.Error != nil {
				return nil, fmt.Errorf("analysis: go list: %s: %s", lp.ImportPath, lp.Error.Err)
			}
			if lp.Export != "" {
				exports[lp.ImportPath] = lp.Export
			}
		}
	}
	imp := makeResolver(fset, exports)
	pkgs := make([]*Package, 0, len(all))
	for _, p := range all {
		pkg, err := typeCheck(fset, imp, p.rel, p.dir, p.files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
