// Command benchgen regenerates the data series behind every figure in the
// paper's evaluation (Figs. 3-14) and prints them as aligned text tables.
//
// Usage:
//
//	benchgen                 # all figures with default options
//	benchgen -fig 5          # only Fig. 5
//	benchgen -runs 10        # average over 10 seeds (the paper's setting)
//	benchgen -edges 10 -horizon 160 -seed 1
//	benchgen -out results.txt
//	benchgen -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/carbonedge/carbonedge/internal/figures"
	"github.com/carbonedge/carbonedge/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("benchgen", flag.ContinueOnError)
	var (
		fig      = fs.Int("fig", 0, "figure number (3-14); 0 runs all")
		ablation = fs.String("ablation", "", "run an ablation instead: all | "+strings.Join(figures.AblationNames(), " | "))
		runs     = fs.Int("runs", 3, "seeds to average over (paper: 10)")
		edges    = fs.Int("edges", 10, "number of edges")
		horizon  = fs.Int("horizon", 160, "number of time slots")
		seed     = fs.Int64("seed", 1, "base random seed")
		outPath  = fs.String("out", "", "also write output to this file")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write an allocs heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	opts := figures.Options{Runs: *runs, Seed: *seed, Edges: *edges, Horizon: *horizon}

	var rendered string
	switch {
	case *ablation != "":
		names := figures.AblationNames()
		if *ablation != "all" {
			names = []string{*ablation}
		}
		gens := figures.Ablations()
		var b strings.Builder
		for _, name := range names {
			gen, ok := gens[name]
			if !ok {
				return fmt.Errorf("unknown ablation %q (valid: all, %s)", name, strings.Join(figures.AblationNames(), ", "))
			}
			f, err := gen(opts)
			if err != nil {
				return fmt.Errorf("ablation %s: %w", name, err)
			}
			b.WriteString(figures.Render(f))
			b.WriteString("\n")
		}
		rendered = b.String()
	case *fig == 0:
		all, err := figures.RenderAll(opts)
		if err != nil {
			return err
		}
		rendered = all
	default:
		gen, ok := figures.All()[*fig]
		if !ok {
			return fmt.Errorf("unknown figure %d (valid: 3-14)", *fig)
		}
		f, err := gen(opts)
		if err != nil {
			return err
		}
		rendered = figures.Render(f)
	}
	if _, err := io.WriteString(stdout, rendered); err != nil {
		return err
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(rendered), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *outPath, err)
		}
	}
	return nil
}
