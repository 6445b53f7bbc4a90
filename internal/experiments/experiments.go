// Package experiments regenerates every evaluation artifact of the paper as
// a measured table (the experiment index of DESIGN.md, E1–E10). The paper
// has no measured tables of its own — its evaluation is the worked Figure 3
// examples plus the complexity analysis of Lemma 1 and Theorem 1 — so each
// experiment here either reproduces a worked example exactly or measures a
// scaling curve whose shape must match the stated bound.
//
// cmd/wlq-bench drives these; the root bench_test.go exposes the same
// workloads as testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
)

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	// ID is the DESIGN.md experiment id (e.g. "E3").
	ID string
	// Name is a short slug for the -exp flag (e.g. "lemma1-consecutive").
	Name string
	// Paper cites the paper artifact the experiment reproduces.
	Paper string
	// Run executes the experiment, writing tables to w. quick shrinks the
	// sweep for fast test runs.
	Run func(w io.Writer, quick bool) error
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "examples", Paper: "Figure 3, Examples 1-3", Run: runExamples},
		{ID: "E2", Name: "incident-tree", Paper: "Figure 4, Example 5", Run: runIncidentTree},
		{ID: "E3", Name: "lemma1-consecutive", Paper: "Lemma 1 (consecutive, sequential)", Run: runLemma1ConsSeq},
		{ID: "E4", Name: "lemma1-choice", Paper: "Lemma 1 (choice)", Run: runLemma1Choice},
		{ID: "E5", Name: "lemma1-parallel", Paper: "Lemma 1 (parallel)", Run: runLemma1Parallel},
		{ID: "E6", Name: "thm1-worstcase", Paper: "Theorem 1 (O(m^k) worst case)", Run: runTheorem1},
		{ID: "E7", Name: "laws", Paper: "Theorems 2-5 (algebraic laws)", Run: runLaws},
		{ID: "E8", Name: "optimizer", Paper: "Section 4 (optimization basis)", Run: runOptimizer},
		{ID: "E9", Name: "naive-vs-merge", Paper: "Section 3.1 (sorted incident sets)", Run: runNaiveVsMerge},
		{ID: "E10", Name: "analytics", Paper: "Section 1 (motivating queries)", Run: runAnalytics},
		{ID: "E11", Name: "parallel-eval", Paper: "Definition 4 (instance decomposition; extension)", Run: runParallelEval},
		{ID: "E12", Name: "monitor", Paper: "Figure 2 (runtime monitoring; extension)", Run: runMonitor},
		{ID: "E13", Name: "sharded-eval", Paper: "Definition 4 (per-instance failure domains; extension)", Run: runSharded},
	}
}

// Find returns the experiment whose ID or Name matches (case-sensitive).
func Find(key string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == key || e.Name == key {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, quick bool) error {
	for _, e := range All() {
		fmt.Fprintf(w, "######## %s %s — %s ########\n\n", e.ID, e.Name, e.Paper)
		if err := e.Run(w, quick); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
