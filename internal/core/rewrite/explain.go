package rewrite

import (
	"fmt"
	"strings"

	"wlq/internal/core/pattern"
)

// Trace is the account of one optimizer run, for EXPLAIN surfaces (the
// CLI's -explain and the query service's /v1/explain) and the rewrite span:
// the input and output patterns with their full cost-model estimates, and
// the transformations applied. String is its compact human-readable form.
type Trace struct {
	// Input is the pattern as written; Output the pattern the evaluator
	// will run (equal to Input when no rewrite fired).
	Input, Output pattern.Node
	// Before and After are the Lemma 1 estimates (cost, output
	// cardinality per instance, atom count) of Input and Output.
	Before, After Estimate
	// Steps names the transformations applied, in order (empty when the
	// optimizer left the pattern unchanged).
	Steps []string
	// Details carries one entry per applied law with its theorem citation
	// and the estimated cost bracket of the pass that applied it.
	Details []Step
	// Selectivities records the per-operator selectivities the run ranked
	// plans with.
	Selectivities Selectivities
}

// Changed reports whether the optimizer produced a different pattern.
func (t Trace) Changed() bool { return !pattern.Equal(t.Input, t.Output) }

// String summarizes the run for CLI display.
func (t Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "estimated cost %.4g -> %.4g", t.Before.Cost, t.After.Cost)
	if len(t.Steps) > 0 {
		sb.WriteString(" via ")
		sb.WriteString(strings.Join(t.Steps, ", "))
	}
	return sb.String()
}

// Selectivities exposes the cost model's assumed selectivity constants —
// the fractions of the Lemma 1 worst case n1·n2 each operator is assumed
// to output, and the fraction of records assumed to pass one attribute
// guard. They are documented assumptions, not measurements: the paper's
// model has no histograms, so the estimator uses fixed textbook defaults
// (cf. Selinger). EXPLAIN output surfaces them so users can judge how much
// to trust a reported estimate.
type Selectivities struct {
	// Guard is the fraction of records passing one attribute guard.
	Guard float64
	// Consecutive, Sequential, Parallel are each operator's output
	// cardinality as a fraction of n1·n2. Choice has no constant: its
	// output is estimated as n1+n2 exactly.
	Consecutive float64
	Sequential  float64
	Parallel    float64
}

// ModelSelectivities returns the constants the estimator ranks plans with.
func ModelSelectivities() Selectivities {
	return Selectivities{
		Guard:       guardSelectivity,
		Consecutive: consecutiveSelectivity,
		Sequential:  sequentialSelectivity,
		Parallel:    parallelSelectivity,
	}
}

// withDefaults fills zero-valued fields with the model constants so a
// partially-populated Selectivities is safe to rank plans with.
func (s Selectivities) withDefaults() Selectivities {
	m := ModelSelectivities()
	if s.Guard <= 0 {
		s.Guard = m.Guard
	}
	if s.Consecutive <= 0 {
		s.Consecutive = m.Consecutive
	}
	if s.Sequential <= 0 {
		s.Sequential = m.Sequential
	}
	if s.Parallel <= 0 {
		s.Parallel = m.Parallel
	}
	return s
}

// ForOp returns the selectivity of one operator. Choice has no selectivity
// constant (its output is n1+n2 exactly); ForOp returns 0 for it and for
// unknown operators.
func (s Selectivities) ForOp(op pattern.Op) float64 {
	switch op {
	case pattern.OpConsecutive:
		return s.Consecutive
	case pattern.OpSequential:
		return s.Sequential
	case pattern.OpParallel:
		return s.Parallel
	default:
		return 0
	}
}
