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
// The backend suite produces the checked-in BENCH_*.json run summaries
// (see the Benchmarks section of README.md):
//
//	wlq-bench -suite -backend row -json BENCH_baseline.json
//	wlq-bench -suite -backend columnar -json BENCH_columnar.json
//	wlq-bench -compare BENCH_baseline.json,BENCH_columnar.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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

		suite     = fs.Bool("suite", false, "run the backend bench suite instead of the experiments")
		backend   = fs.String("backend", "row", "with -suite: storage backend, row or columnar")
		jsonPath  = fs.String("json", "", "with -suite: write the machine-readable run summary to this path")
		instances = fs.Int("instances", 1500, "with -suite: clinic log size (workflow instances)")
		seed      = fs.Int64("seed", 42, "with -suite: clinic log generation seed")
		compare   = fs.String("compare", "", "compare two run summaries: -compare a.json,b.json (exits non-zero when answers differ)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		parts := strings.Split(*compare, ",")
		if len(parts) != 2 {
			return fmt.Errorf("-compare wants two comma-separated paths, got %q", *compare)
		}
		return compareReports(out, strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
	}
	if *suite {
		n := *instances
		if *quick {
			n = 150
		}
		return runSuite(out, *backend, *jsonPath, n, *seed)
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
