package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The docs a deletion has to chase by hand: the living ones. CHANGES.md and
// ROADMAP.md are logs of what once existed, and benchmark/ is frozen per PR.
var livingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpanRE   = regexp.MustCompile("`([^`\n]+)`")
	cmdRefRE     = regexp.MustCompile(`\bcmd/[a-z0-9-]+`)
	internalRE   = regexp.MustCompile(`\binternal/[a-z0-9_]+(?:/[A-Za-z0-9_{},*-]+)*(?:\.(?:go|s))?`)
	fileTokenRE  = regexp.MustCompile(`^[A-Za-z0-9_.-]+\.(?:go|s|md|json|jsonl|txt|mod)$`)
	braceRE      = regexp.MustCompile(`\{([^{}]*)\}`)
	makeRE       = regexp.MustCompile(`(?:^|[\s;&|])make((?: +[a-z][a-z0-9-]*)+)`)
	makeTargetRE = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// TestDocsNameOnlyWhatExists fails on a code span (inline or fenced) of a
// living doc, or a line of the Makefile's help header, that names a
// cmd/<name>, an internal/<pkg>[/file], a source or data file, or a make
// target the tree no longer has. Reword the doc, or restore what it names.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	const root = "../.."
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
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		basenames[d.Name()] = true
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
		for _, ref := range append(cmdRefRE.FindAllString(span, -1), internalRE.FindAllString(span, -1)...) {
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
