package rewrite

import (
	"math/rand"
	"strings"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
)

func TestEstimatorAtoms(t *testing.T) {
	stats := UniformStats{PerActivity: 100, Instances: 10, ActivityNames: 5}
	est := NewEstimator(stats)

	pos := est.Estimate(pattern.NewAtom("A"))
	if pos.Card != 10 { // 100 records over 10 instances
		t.Errorf("positive atom card = %g, want 10", pos.Card)
	}
	if pos.Atoms != 1 {
		t.Errorf("Atoms = %d", pos.Atoms)
	}

	neg := est.Estimate(pattern.NewNegAtom("A"))
	if neg.Card != 40 { // (500-100)/10
		t.Errorf("negated atom card = %g, want 40", neg.Card)
	}

	guarded := est.Estimate(pattern.MustParse("A[x>1]"))
	if guarded.Card >= pos.Card {
		t.Errorf("guard did not reduce cardinality: %g >= %g", guarded.Card, pos.Card)
	}
}

func TestEstimatorMonotonicInChildren(t *testing.T) {
	est := NewEstimator(UniformStats{})
	small := est.Estimate(pattern.MustParse("A -> B"))
	big := est.Estimate(pattern.MustParse("(A | !A) -> B"))
	if big.Cost <= small.Cost {
		t.Errorf("larger input should cost more: %g <= %g", big.Cost, small.Cost)
	}
}

func TestEstimatorChoiceVsParallelJoin(t *testing.T) {
	est := NewEstimator(UniformStats{})
	l := est.Estimate(pattern.MustParse("A -> B"))
	r := est.Estimate(pattern.MustParse("C -> D"))
	choice := est.Combine(pattern.OpChoice, l, r)
	parallel := est.Combine(pattern.OpParallel, l, r)
	// Lemma 1: ⊗ joins at n1·n2·min(k1,k2), ⊕ at n1·n2·(k1+k2); with k1=k2=2
	// the parallel join must be costlier.
	if parallel.Cost <= choice.Cost {
		t.Errorf("parallel %g should exceed choice %g", parallel.Cost, choice.Cost)
	}
}

func TestUniformStatsDefaults(t *testing.T) {
	var u UniformStats
	if u.ActivityCount("anything") != 100 {
		t.Errorf("default PerActivity = %d", u.ActivityCount("x"))
	}
	if u.TotalRecords() != 1000 {
		t.Errorf("default TotalRecords = %d", u.TotalRecords())
	}
	if len(u.WIDs()) != 10 {
		t.Errorf("default Instances = %d", len(u.WIDs()))
	}
}

func TestOptimizeFactorsChoices(t *testing.T) {
	p := pattern.MustParse("(A -> B) | (A -> C)")
	out, ex := Optimize(p, UniformStats{})
	want := pattern.MustParse("A -> (B | C)")
	if !pattern.Equal(out, want) {
		t.Errorf("Optimize = %s, want %s", out, want)
	}
	if ex.After.Cost > ex.Before.Cost {
		t.Errorf("cost increased: %g -> %g", ex.Before.Cost, ex.After.Cost)
	}
	if len(ex.Steps) == 0 || !strings.Contains(ex.Steps[0], "factored") {
		t.Errorf("Steps = %v", ex.Steps)
	}
	if !strings.Contains(ex.String(), "estimated cost") {
		t.Errorf("Trace.String = %q", ex.String())
	}
}

func TestOptimizeRebracketsSkewedChain(t *testing.T) {
	// Rare -> (Common -> Common) ... with "Rare" tiny, bracketing the chain
	// so the rare operand joins early is cheaper. Build skewed stats.
	stats := skewedStats{counts: map[string]int{"R": 2, "X": 1000, "Y": 1000, "Z": 1000}}
	p := pattern.MustParse("X -> Y -> Z -> R") // left-deep: big joins first
	out, ex := Optimize(p, stats)
	est := NewEstimator(stats)
	if est.Cost(out) > est.Cost(p) {
		t.Errorf("optimizer increased cost: %g -> %g", est.Cost(p), est.Cost(out))
	}
	if ex.After.Cost > ex.Before.Cost {
		t.Errorf("explanation disagrees: %g -> %g", ex.Before.Cost, ex.After.Cost)
	}
}

// skewedStats is a Stats stub with per-activity counts.
type skewedStats struct {
	counts map[string]int
}

func (s skewedStats) ActivityCount(act string) int { return s.counts[act] }
func (s skewedStats) TotalRecords() int {
	total := 0
	for _, c := range s.counts {
		total += c
	}
	return total
}
func (s skewedStats) WIDs() []uint64 { return []uint64{1, 2, 3, 4, 5} }

// TestOptimizePreservesSemantics: the full optimizer pipeline never changes
// incL(p) (experiment E8's correctness half).
func TestOptimizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 120; trial++ {
		p := randomPattern(rng, 4)
		l := randomLog(t, rng)
		ix := eval.NewIndex(l)
		out, ex := Optimize(p, ix)
		checkEquivalent(t, l, p, out, "Optimize")
		if ex.After.Cost > ex.Before.Cost+1e-9 {
			t.Fatalf("trial %d: optimizer increased estimated cost %g -> %g for %s",
				trial, ex.Before.Cost, ex.After.Cost, p)
		}
	}
}

func TestOptimizeLeavesAtomsAlone(t *testing.T) {
	p := pattern.NewAtom("A")
	out, ex := Optimize(p, UniformStats{})
	if !pattern.Equal(p, out) || len(ex.Steps) != 0 {
		t.Errorf("Optimize(atom) = %s, steps %v", out, ex.Steps)
	}
}

func TestCanonicalizeCommutative(t *testing.T) {
	a := pattern.MustParse("(C | A) | B")
	b := pattern.MustParse("B | (C | A)")
	c := pattern.MustParse("A | (B | C)")
	ca, cb, cc := pattern.Canonical(a), pattern.Canonical(b), pattern.Canonical(c)
	if !pattern.Equal(ca, cb) || !pattern.Equal(cb, cc) {
		t.Errorf("canonical forms differ: %s / %s / %s", ca, cb, cc)
	}
	want := pattern.MustParse("(A | B) | C")
	if !pattern.Equal(ca, want) {
		t.Errorf("canonical = %s, want %s", ca, want)
	}
}

func TestCanonicalizeNonCommutativePreservesOrder(t *testing.T) {
	a := pattern.MustParse("C -> (A -> B)")
	got := pattern.Canonical(a)
	want := pattern.MustParse("(C -> A) -> B")
	if !pattern.Equal(got, want) {
		t.Errorf("canonical = %s, want %s", got, want)
	}
	// Operand order must not be sorted for ≺.
	bad := pattern.MustParse("(A -> B) -> C")
	if pattern.Equal(got, bad) {
		t.Error("canonicalization reordered a sequential chain")
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		p := randomPattern(rng, 4)
		once := pattern.Canonical(p)
		twice := pattern.Canonical(once)
		if !pattern.Equal(once, twice) {
			t.Fatalf("not idempotent on %s: %s vs %s", p, once, twice)
		}
	}
}

// TestCanonicalizePreservesSemantics: canonicalization is itself built only
// from Theorems 2 and 3, so it must preserve incL.
func TestCanonicalizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		p := randomPattern(rng, 4)
		checkEquivalent(t, randomLog(t, rng), p, pattern.Canonical(p), "pattern.Canonical")
	}
}

func TestEquivalentModuloAC(t *testing.T) {
	yes := [][2]string{
		{"A | B | C", "C | (B | A)"},
		{"A & (B & C)", "(C & B) & A"},
		{"A -> (B -> C)", "(A -> B) -> C"},
		{"(A | B) -> C", "(B | A) -> C"},
	}
	for _, pair := range yes {
		p, q := pattern.MustParse(pair[0]), pattern.MustParse(pair[1])
		if pattern.CanonicalKey(p) != pattern.CanonicalKey(q) {
			t.Errorf("%s and %s: canonical keys differ", p, q)
		}
	}
	no := [][2]string{
		{"A -> B", "B -> A"},
		{"A . B", "A -> B"},
		{"A | B", "A & B"},
		// True equivalences beyond AC (documented incompleteness).
		{"A . (B -> C)", "(A . B) -> C"},        // Theorem 4
		{"(A -> B) | (A -> C)", "A -> (B | C)"}, // Theorem 5
	}
	for _, pair := range no {
		p, q := pattern.MustParse(pair[0]), pattern.MustParse(pair[1])
		if pattern.CanonicalKey(p) == pattern.CanonicalKey(q) {
			t.Errorf("%s and %s: same canonical key", p, q)
		}
	}
	// Soundness at scale: random commuted/rebracketed variants.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		p := randomPattern(rng, 4)
		variant := p
		for i := 0; i < 3; i++ {
			for _, op := range AllOps {
				if op.Commutative() {
					variant, _ = ApplyEverywhere(variant, commute(op))
				}
				variant, _ = ApplyEverywhere(variant, assocRight(op))
			}
		}
		if pattern.CanonicalKey(p) != pattern.CanonicalKey(variant) {
			t.Fatalf("trial %d: AC variant not recognized:\n%s\n%s", trial, p, variant)
		}
	}
}
