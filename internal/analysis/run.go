package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// AllowPrefix introduces a suppression directive:
//
//	//lint:allow <analyzer> <reason>
//
// placed on the flagged line or on the line directly above it. The reason
// is mandatory — an annotation that cannot say why it exists should not
// exist — and a directive that suppresses nothing is itself reported, so
// stale annotations surface the next time carbonlint runs.
const AllowPrefix = "lint:allow"

// A Finding is one positioned diagnostic, attributed to its analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// commentDirectiveBody extracts the "lint:..." payload of a directive
// comment. Line directives start exactly "//lint:"; block directives start
// exactly "/*lint:" and read to the end of their first line, so a directive
// can sit mid-code as /*lint:allow name reason*/. In both forms a nested
// "//" ends the payload, so analyzertest want expectations can share the
// comment; reasons therefore cannot contain "//".
func commentDirectiveBody(c *ast.Comment) (string, bool) {
	if rest, ok := strings.CutPrefix(c.Text, "//"); ok {
		if !strings.HasPrefix(rest, "lint:") {
			return "", false
		}
		rest, _, _ = strings.Cut(rest, "//")
		return rest, true
	}
	rest, ok := strings.CutPrefix(c.Text, "/*")
	if !ok || !strings.HasPrefix(rest, "lint:") {
		return "", false
	}
	rest, _, _ = strings.Cut(rest, "\n")
	rest = strings.TrimSuffix(strings.TrimSpace(rest), "*/")
	rest, _, _ = strings.Cut(rest, "//")
	return rest, true
}

// cutDirective strips a directive keyword from a payload, requiring a word
// boundary so a hypothetical lint:allowx never parses as lint:allow.
func cutDirective(body, keyword string) (string, bool) {
	rest, ok := strings.CutPrefix(body, keyword)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	return rest, true
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
	// malformed holds the complaint when the directive failed to parse;
	// malformed directives never suppress anything.
	malformed string
}

// parseAllowDirectives walks every comment in the package and extracts
// //lint:allow directives (line or block form), keyed by (filename, line)
// of the comment.
func parseAllowDirectives(pkg *Package) map[string]map[int]*allowDirective {
	byFile := make(map[string]map[int]*allowDirective)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := commentDirectiveBody(c)
				if !ok {
					continue
				}
				text, ok := cutDirective(body, AllowPrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := &allowDirective{pos: pos}
				fields := strings.Fields(text)
				switch {
				case len(fields) == 0:
					d.malformed = "missing analyzer name and reason"
				case len(fields) == 1:
					d.analyzer = fields[0]
					d.malformed = "missing reason: write //lint:allow " + fields[0] + " <why this site is exempt>"
				default:
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				lines := byFile[pos.Filename]
				if lines == nil {
					lines = make(map[int]*allowDirective)
					byFile[pos.Filename] = lines
				}
				lines[pos.Line] = d
			}
		}
	}
	return byFile
}

// suppressedBy returns the directive covering a diagnostic from analyzer at
// pos, or nil. A directive covers its own line and the line below it.
func suppressedBy(dirs map[string]map[int]*allowDirective, analyzer string, pos token.Position) *allowDirective {
	lines := dirs[pos.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if d := lines[line]; d != nil && d.malformed == "" && d.analyzer == analyzer {
			return d
		}
	}
	return nil
}

// A Candidate is one diagnostic from a Global analyzer, pending the
// program-wide Select decision that MergeSummaries makes once every
// package's call-graph contribution has been stitched together.
type Candidate struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// FuncKey names the enclosing function in the program call graph.
	FuncKey string
	// Allow indexes the summary's AllowDirs entry covering this site, or -1.
	// Whether the directive counts as used is only known after Select runs.
	Allow int
}

// An AllowDir is an //lint:allow directive naming a Global analyzer; its
// used/unused resolution is deferred to MergeSummaries.
type AllowDir struct {
	Analyzer string
	Pos      token.Position
}

// A PkgSummary is the complete result of analyzing one package in
// isolation: resolved local findings, the package's call-graph
// contribution, and the global analyzers' pending candidates, as plain data
// that refers to nothing outside the package.
type PkgSummary struct {
	PkgPath    string
	Findings   []Finding
	Funcs      []*GraphFunc
	Candidates []Candidate
	AllowDirs  []AllowDir
}

// Summarize runs every analyzer on one loaded package. Local analyzers'
// diagnostics are suppression-resolved immediately; Global analyzers'
// diagnostics become Candidates (with their covering allow directives
// recorded but unresolved), because whether they fire at all depends on the
// whole-program call graph no single package can see.
func Summarize(pkg *Package, analyzers []*Analyzer) (*PkgSummary, error) {
	s := &PkgSummary{PkgPath: pkg.PkgPath}
	globalNames := make(map[string]bool)
	for _, a := range analyzers {
		if a.Global {
			globalNames[a.Name] = true
		}
	}

	funcs, graphFindings := buildGraphFuncs(pkg)
	s.Funcs = funcs
	s.Findings = append(s.Findings, graphFindings...)

	dirs := parseAllowDirectives(pkg)
	pendingIdx := make(map[*allowDirective]int)
	pending := func(d *allowDirective) int {
		idx, ok := pendingIdx[d]
		if !ok {
			idx = len(s.AllowDirs)
			pendingIdx[d] = idx
			s.AllowDirs = append(s.AllowDirs, AllowDir{Analyzer: d.analyzer, Pos: d.pos})
		}
		return idx
	}

	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			PkgPath:   pkg.PkgPath,
			TypesInfo: pkg.Info,
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
		for _, diag := range pass.diagnostics {
			pos := pkg.Fset.Position(diag.Pos)
			d := suppressedBy(dirs, a.Name, pos)
			if a.Global {
				c := Candidate{Analyzer: a.Name, Pos: pos, Message: diag.Message, FuncKey: diag.FuncKey, Allow: -1}
				if d != nil {
					c.Allow = pending(d)
				}
				s.Candidates = append(s.Candidates, c)
				continue
			}
			if d != nil {
				d.used = true
				continue
			}
			s.Findings = append(s.Findings, Finding{Analyzer: a.Name, Pos: pos, Message: diag.Message})
		}
	}

	// Deterministic directive order: findings must not depend on map
	// iteration.
	var ordered []*allowDirective
	for _, lines := range dirs {
		for _, d := range lines {
			ordered = append(ordered, d)
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		return a.pos.Line < b.pos.Line
	})
	for _, d := range ordered {
		switch {
		case d.malformed != "":
			s.Findings = append(s.Findings, Finding{
				Analyzer: "allow",
				Pos:      d.pos,
				Message:  "malformed directive: " + d.malformed,
			})
		case d.used:
		case globalNames[d.analyzer]:
			pending(d) // used/unused is decided at merge time
		default:
			s.Findings = append(s.Findings, Finding{
				Analyzer: "allow",
				Pos:      d.pos,
				Message:  fmt.Sprintf("unused directive: nothing here trips %q; delete the annotation", d.analyzer),
			})
		}
	}
	return s, nil
}

// MergeSummaries stitches package summaries into the program call graph,
// resolves every Global analyzer's candidates and pending allow directives
// against it, and returns all findings sorted by position.
func MergeSummaries(sums []*PkgSummary, analyzers []*Analyzer) []Finding {
	lists := make([][]*GraphFunc, 0, len(sums))
	for _, s := range sums {
		lists = append(lists, s.Funcs)
	}
	graph := MergeGraph(lists...)

	keeps := make(map[string]func(string) (string, bool))
	for _, a := range analyzers {
		if a.Global && a.Select != nil {
			keeps[a.Name] = a.Select(graph)
		}
	}

	var findings []Finding
	for _, s := range sums {
		used := make([]bool, len(s.AllowDirs))
		for _, c := range s.Candidates {
			note := ""
			if keep := keeps[c.Analyzer]; keep != nil {
				n, ok := keep(c.FuncKey)
				if !ok {
					continue
				}
				note = n
			}
			if c.Allow >= 0 {
				used[c.Allow] = true
				continue
			}
			findings = append(findings, Finding{Analyzer: c.Analyzer, Pos: c.Pos, Message: c.Message + note})
		}
		for i, d := range s.AllowDirs {
			if !used[i] {
				findings = append(findings, Finding{
					Analyzer: "allow",
					Pos:      d.Pos,
					Message:  fmt.Sprintf("unused directive: nothing here trips %q; delete the annotation", d.Analyzer),
				})
			}
		}
		findings = append(findings, s.Findings...)
	}
	sortFindings(findings)
	return findings
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// RunAnalyzers applies every analyzer to every package, resolves
// //lint:allow suppressions and program-wide Select decisions, and returns
// the surviving findings sorted by position. Malformed and unused
// directives are reported as findings of the pseudo-analyzer "allow".
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	sums := make([]*PkgSummary, 0, len(pkgs))
	for _, pkg := range pkgs {
		s, err := Summarize(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		sums = append(sums, s)
	}
	return MergeSummaries(sums, analyzers), nil
}
