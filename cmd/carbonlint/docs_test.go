package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The docs a deletion has to chase by hand: the living ones. CHANGES.md and
// ROADMAP.md are logs of what once existed, and benchmark/ is frozen per PR.
var livingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpanRE   = regexp.MustCompile("`([^`\n]+)`")
	programRefRE = regexp.MustCompile(`\b(?:cmd|examples)/[a-z0-9-]+`)
	internalRE   = regexp.MustCompile(`\binternal/[a-z0-9_]+(?:/[A-Za-z0-9_{},*-]+)*(?:\.(?:go|s))?`)
	fileTokenRE  = regexp.MustCompile(`^[A-Za-z0-9_.-]+\.(?:go|s|md|json|jsonl|txt|mod)$`)
	braceRE      = regexp.MustCompile(`\{([^{}]*)\}`)
	makeRE       = regexp.MustCompile(`(?:^|[\s;&|])make((?: +[a-z][a-z0-9-]*)+)`)
	makeTargetRE = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	testNameRE   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)\w*`)
	testDeclRE   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	metricRE     = regexp.MustCompile(`^[a-z][a-z0-9]*(?:\.[a-z0-9_]+)+$`)
)

// benchmarkMetrics reads BENCHMARK.json's metric names: the set it declares,
// and the first segments of its per-layer names, which mark a dotted name
// as one of its metrics.
func benchmarkMetrics(t *testing.T, root string) (declared, prefixes map[string]bool) {
	body, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &bj); err != nil {
		t.Fatal(err)
	}
	declared, prefixes = map[string]bool{}, map[string]bool{}
	for _, m := range bj.EndToEnd {
		declared[m.Name] = true
	}
	for _, m := range bj.PerLayer {
		declared[m.Name] = true
		prefix, _, _ := strings.Cut(m.Name, ".")
		prefixes[prefix] = true
	}
	return declared, prefixes
}

// TestDocsNameOnlyWhatExists fails on a code span (inline or fenced) of a
// living doc, or a line of the Makefile's help header, that names a
// cmd/<name>, an examples/<name>, an internal/<pkg>[/file], a source or
// data file, or a make target the tree no longer has, whose Test…,
// Benchmark… or Fuzz… name (split on the | and / of a -run or -bench
// pattern) begins no function a _test.go file declares, or that names a
// slot-cost benchmark metric BENCHMARK.json does not declare — a lowercase
// dotted name whose first segment is a per-layer metric's and that contains
// an underscore. Reword the doc, or restore what it names.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	const root = "../.."
	metrics, metricPrefixes := benchmarkMetrics(t, root)
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetRE.FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	// A bare file name in a doc means "that file of the package under
	// discussion", so it is held to existing anywhere in the tree.
	basenames := map[string]bool{}
	var testFuncs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		basenames[d.Name()] = true
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testDeclRE.FindAllSubmatch(src, -1) {
				testFuncs = append(testFuncs, string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(pattern string) bool {
		pats := []string{pattern}
		if m := braceRE.FindStringSubmatchIndex(pattern); m != nil {
			pats = pats[:0]
			for _, alt := range strings.Split(pattern[m[2]:m[3]], ",") {
				pats = append(pats, pattern[:m[0]]+alt+pattern[m[1]:])
			}
		}
		for _, p := range pats {
			if hits, _ := filepath.Glob(filepath.Join(root, p)); len(hits) == 0 {
				return false
			}
		}
		return true
	}
	check := func(doc, span string) {
		for _, ref := range append(programRefRE.FindAllString(span, -1), internalRE.FindAllString(span, -1)...) {
			// A zz_ file is one a lint demo plants and deletes.
			if !exists(ref) && !strings.HasPrefix(filepath.Base(ref), "zz_") {
				t.Errorf("%s names %s, which does not exist (in %q)", doc, ref, span)
			}
		}
		for _, tok := range strings.Fields(span) {
			tok = strings.Trim(tok, `.,;:()"'`)
			if fileTokenRE.MatchString(tok) && !basenames[tok] {
				t.Errorf("%s names the file %s, which does not exist (in %q)", doc, tok, span)
			}
			prefix, _, _ := strings.Cut(tok, ".")
			if metricRE.MatchString(tok) && metricPrefixes[prefix] && strings.Contains(tok, "_") && !metrics[tok] {
				t.Errorf("%s names the metric %s, which BENCHMARK.json does not declare (in %q)", doc, tok, span)
			}
		}
		for _, name := range testNameRE.FindAllString(strings.NewReplacer("|", " ", "/", " ").Replace(span), -1) {
			if !slices.ContainsFunc(testFuncs, func(f string) bool { return strings.HasPrefix(f, name) }) {
				t.Errorf("%s names %s, which begins no test, benchmark or fuzz function (in %q)", doc, name, span)
			}
		}
		for _, m := range makeRE.FindAllStringSubmatch(span, -1) {
			// `make a b`: the first word must be a target; the words after it
			// are targets until one is not (then it is prose or an argument).
			for i, word := range strings.Fields(m[1]) {
				if !targets[word] {
					if i == 0 {
						t.Errorf("%s names make %s, which the Makefile does not have (in %q)", doc, word, span)
					}
					break
				}
			}
		}
	}

	for _, doc := range livingDocs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for _, line := range strings.Split(string(text), "\n") {
			switch {
			case strings.HasPrefix(strings.TrimSpace(line), "```"):
				fenced = !fenced
			case fenced:
				check(doc, line)
			default:
				for _, m := range codeSpanRE.FindAllStringSubmatch(line, -1) {
					check(doc, m[1])
				}
			}
		}
	}
	header, _, _ := strings.Cut(string(makefile), "\n\n")
	for _, line := range strings.Split(header, "\n") {
		check("Makefile help header", strings.TrimLeft(line, "# "))
	}
}

// TestDesignNamesNoPR fails on a line of DESIGN.md or EXPERIMENTS.md that
// cites a change by its number: both describe the system as it is, and
// CHANGES.md keeps the history. Name the change by what it did, or move the
// sentence there.
func TestDesignNamesNoPR(t *testing.T) {
	prRE := regexp.MustCompile(`PR \d+`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			if m := prRE.FindString(line); m != "" {
				t.Errorf("%s:%d cites %s: name the change by what it did (CHANGES.md has its entry)", doc, i+1, m)
			}
		}
	}
}
