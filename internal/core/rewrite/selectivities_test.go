package rewrite

import (
	"testing"

	"wlq/internal/core/pattern"
)

func TestWithDefaultsFillsZeroValues(t *testing.T) {
	got := Selectivities{Sequential: 0.9}.withDefaults()
	m := ModelSelectivities()
	if got.Sequential != 0.9 {
		t.Fatalf("set field overwritten: %+v", got)
	}
	if got.Guard != m.Guard || got.Consecutive != m.Consecutive || got.Parallel != m.Parallel {
		t.Fatalf("zero fields not defaulted: %+v", got)
	}
}

func TestForOp(t *testing.T) {
	sel := ModelSelectivities()
	sel.Sequential = 0.8
	if v := sel.ForOp(pattern.OpSequential); v != 0.8 {
		t.Fatalf("sequential: %v", v)
	}
	if v := sel.ForOp(pattern.OpConsecutive); v != sel.Consecutive {
		t.Fatalf("consecutive: %v", v)
	}
	// Choice's output is n1+n2 exactly — no selectivity to report.
	if v := sel.ForOp(pattern.OpChoice); v != 0 {
		t.Fatalf("choice: %v, want 0", v)
	}
}

func TestEstimatorWithScalesCardinality(t *testing.T) {
	stats := UniformStats{PerActivity: 100, Instances: 10}
	hi := NewEstimator(stats)
	hi.sel.Sequential = 1.0
	lo := NewEstimator(stats) // model constant 0.25
	p := pattern.MustParse("A -> B")
	if h, l := hi.Estimate(p).Card, lo.Estimate(p).Card; h != 4*l {
		t.Fatalf("sequential card with sel 1.0 = %g, want 4x the 0.25-model %g", h, l)
	}
}

// skewStats gives each activity its own per-instance frequency, so tests can
// place a composite sub-pattern's estimated cardinality between two atoms'.
type skewStats struct {
	counts map[string]int
	inst   int
}

func (s skewStats) ActivityCount(act string) int { return s.counts[act] }
func (s skewStats) TotalRecords() int {
	total := 0
	for _, n := range s.counts {
		total += n
	}
	return total
}
func (s skewStats) WIDs() []uint64 {
	wids := make([]uint64, s.inst)
	for i := range wids {
		wids[i] = uint64(i + 1)
	}
	return wids
}

// TestOptimizeWithPlanFlip shows the ranking follows its Selectivities: the
// same query over the same statistics yields different plans under different
// numbers. The ⊕ chain is reordered smallest-card first; (A -> B)'s card is
// sel·16 per instance, so it sorts between the E (card 3) and F (card 5)
// atoms under the 0.25 constant but after both under a selectivity of 1.0,
// moving the join against the composite operand last.
func TestOptimizeWithPlanFlip(t *testing.T) {
	stats := skewStats{
		counts: map[string]int{"A": 40, "B": 40, "E": 30, "F": 50},
		inst:   10,
	}
	q := pattern.MustParse("E & (A -> B) & F")

	static, _ := Optimize(q, stats)
	flipped, _ := OptimizeWith(q, stats, Selectivities{Sequential: 1.0})

	wantStatic := pattern.MustParse("(E & (A -> B)) & F")
	wantFlipped := pattern.MustParse("(E & F) & (A -> B)")
	if !pattern.Equal(static, wantStatic) {
		t.Errorf("static plan = %q, want %q", static, wantStatic)
	}
	if !pattern.Equal(flipped, wantFlipped) {
		t.Errorf("plan under sequential=1.0 = %q, want %q", flipped, wantFlipped)
	}
	if pattern.Equal(static, flipped) {
		t.Fatal("different selectivities did not change the plan")
	}
	// Both plans are AC-equivalent — same answers, different evaluation order.
	if pattern.CanonicalKey(static) != pattern.CanonicalKey(flipped) {
		t.Fatal("plans must stay equivalent modulo Theorems 2-3")
	}
}

// TestExplainWithReportsSelectivities: Optimize's trace carries the
// selectivities the plan was ranked with — the model constants.
func TestExplainWithReportsSelectivities(t *testing.T) {
	_, tr := Optimize(pattern.MustParse("A -> B"), UniformStats{})
	if tr.Selectivities != ModelSelectivities() {
		t.Fatalf("trace selectivities = %+v, want the model constants", tr.Selectivities)
	}
}
