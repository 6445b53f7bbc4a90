package rewrite

import (
	"testing"

	"wlq/internal/core/pattern"
)

// TestExplainMatchesOptimize: the EXPLAIN trace Optimize returns describes
// the plan it returns — its input and output patterns, their estimates, and
// one detail per step.
func TestExplainMatchesOptimize(t *testing.T) {
	stats := UniformStats{}
	est := NewEstimator(stats)
	for _, q := range []string{
		"A",
		"A -> B",
		"(A -> B) | (A -> C)",
		"A -> B -> C -> D",
		"A & B & C | D",
	} {
		p := pattern.MustParse(q)
		got, tr := Optimize(p, stats)
		if !pattern.Equal(tr.Input, p) || !pattern.Equal(tr.Output, got) {
			t.Errorf("%q: trace input/output mismatch", q)
		}
		if tr.Before != est.Estimate(p) || tr.After != est.Estimate(got) {
			t.Errorf("%q: trace estimates (%+v, %+v) are not the estimator's of input and output", q, tr.Before, tr.After)
		}
		if tr.After.Cost > tr.Before.Cost {
			t.Errorf("%q: optimizer made the plan costlier: %g -> %g", q, tr.Before.Cost, tr.After.Cost)
		}
		if tr.Changed() != !pattern.Equal(p, got) {
			t.Errorf("%q: Changed() = %v inconsistent with patterns", q, tr.Changed())
		}
		if len(tr.Steps) != len(tr.Details) {
			t.Errorf("%q: trace steps %v do not match its details %+v", q, tr.Steps, tr.Details)
		}
	}
}

func TestExplainDoesNotAliasInput(t *testing.T) {
	p := pattern.MustParse("A -> B")
	_, tr := Optimize(p, UniformStats{})
	tr.Input.(*pattern.Binary).Left = pattern.NewAtom("X")
	if p.String() != "A -> B" {
		t.Fatalf("mutating the trace input changed the caller's pattern: %s", p)
	}
}

func TestModelSelectivities(t *testing.T) {
	s := ModelSelectivities()
	if s.Guard != guardSelectivity || s.Consecutive != consecutiveSelectivity ||
		s.Sequential != sequentialSelectivity || s.Parallel != parallelSelectivity {
		t.Fatalf("ModelSelectivities() = %+v does not match the package constants", s)
	}
	for name, v := range map[string]float64{
		"guard": s.Guard, "consecutive": s.Consecutive,
		"sequential": s.Sequential, "parallel": s.Parallel,
	} {
		if v <= 0 || v > 1 {
			t.Errorf("%s selectivity %g outside (0, 1]", name, v)
		}
	}
}
