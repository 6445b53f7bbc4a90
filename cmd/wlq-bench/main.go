// Command wlq-bench regenerates the evaluation tables of EXPERIMENTS.md:
// the paper's worked examples, the Lemma 1 and Theorem 1 scaling curves,
// the Theorems 2–5 law matrix, and the ablation studies.
//
// Usage:
//
//	wlq-bench                 # run every experiment (several minutes)
//	wlq-bench -quick          # shrunken sweeps (seconds)
//	wlq-bench -exp E6         # one experiment by id ...
//	wlq-bench -exp lemma1-choice   # ... or by name
//	wlq-bench -list           # list experiments
//
// Performance of the served system is measured by bench/ (see its README),
// not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"wlq/internal/benchkit"
	"wlq/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wlq-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wlq-bench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		exp   = fs.String("exp", "", "run a single experiment (id like E3, or name)")
		quick = fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
		list  = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		rows := [][]string{{"id", "name", "reproduces"}}
		for _, e := range experiments.All() {
			rows = append(rows, []string{e.ID, e.Name, e.Paper})
		}
		fmt.Fprint(out, benchkit.Align(rows))
		return nil
	}
	if *exp != "" {
		e, ok := experiments.Find(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *exp)
		}
		fmt.Fprintf(out, "######## %s %s — %s ########\n\n", e.ID, e.Name, e.Paper)
		return e.Run(out, *quick)
	}
	return experiments.RunAll(out, *quick)
}
