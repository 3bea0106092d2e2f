package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fusedRE matches the fused multiply-add instructions gc emits on arm64
// (FMADDD, FNMSUBS, …) and riscv64 (FMADDD, …) in go tool objdump's output.
var fusedRE = regexp.MustCompile(`\s(F(?:N?M(?:ADD|SUB))[DS]?)\s`)

// TestNoFusedMultiplyAdd holds the float contract on the architectures that
// fuse: Go's spec lets the compiler fuse x*y + z into one instruction that
// rounds once instead of twice, unless an explicit float64(x*y) conversion
// rounds the product, and gc does fuse on arm64 and riscv64 (amd64 does
// not). It cross-compiles every cmd/ program for both, disassembles the
// module's functions and fails on any fused instruction whose source line
// is in this module, naming each file:line; the standard library's own
// fused sites are out of its reach.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles every program twice")
	}
	const module = "github.com/carbonedge/carbonedge/"
	sites := map[string][]string{} // file:line -> architectures
	for _, arch := range []string{"arm64", "riscv64"} {
		dir := t.TempDir()
		build := exec.Command("go", "build", "-trimpath", "-o", dir+string(filepath.Separator), "./cmd/...")
		build.Dir = "../.."
		build.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("GOARCH=%s go build ./cmd/...: %v\n%s", arch, err, out)
		}
		bins, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, bin := range bins {
			path := filepath.Join(dir, bin.Name())
			for _, site := range fusedSites(t, path) {
				if rel, ok := strings.CutPrefix(site, module); ok && !slices.Contains(sites[rel], arch) {
					sites[rel] = append(sites[rel], arch)
				}
			}
		}
	}
	keys := make([]string, 0, len(sites))
	for site := range sites {
		keys = append(keys, site)
	}
	slices.Sort(keys)
	for _, site := range keys {
		t.Errorf("%s: fused multiply-add on %s; round the product with float64(a*b)", site, strings.Join(sites[site], ", "))
	}
}

// fusedSites disassembles the module's functions in the binary at path and
// returns the source position (file:line, the file's import path as
// -trimpath records it) of every fused multiply-add instruction.
func fusedSites(t *testing.T, path string) []string {
	t.Helper()
	out, err := exec.Command("go", "tool", "objdump", "-s", "github.com/carbonedge", path).Output()
	if err != nil {
		t.Fatalf("go tool objdump %s: %v", path, err)
	}
	// objdump names an instruction's file by its base name only; addr2line
	// resolves its address to the full path.
	var addrs bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) > 2 && fusedRE.MatchString(sc.Text()+" ") {
			fmt.Fprintln(&addrs, f[1])
		}
	}
	if addrs.Len() == 0 {
		return nil
	}
	resolve := exec.Command("go", "tool", "addr2line", path)
	resolve.Stdin = &addrs
	out, err = resolve.Output()
	if err != nil {
		t.Fatalf("go tool addr2line %s: %v", path, err)
	}
	// addr2line prints two lines per address: the function, then file:line.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var sites []string
	for i := 1; i < len(lines); i += 2 {
		sites = append(sites, lines[i])
	}
	return sites
}
