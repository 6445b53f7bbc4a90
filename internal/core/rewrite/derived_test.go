package rewrite

import (
	"math/rand"
	"strings"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
)

// TestChoiceIdempotentLaw: p ⊗ p ≡ p — incL(p1 ⊗ p2) is a set union
// (Definition 4) — which is what lets the optimizer drop a repeated choice
// operand; ⊕ has no such law and must keep its duplicates.
func TestChoiceIdempotentLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		p := randomPattern(rng, 3)
		lhs := &pattern.Binary{Op: pattern.OpChoice, Left: p, Right: pattern.Clone(p)}
		l := randomLog(t, rng)
		checkEquivalent(t, l, lhs, p, "idempotent(⊗)")
		out, _ := Optimize(lhs, UniformStats{})
		if pattern.Operators(out) > pattern.Operators(p) {
			t.Fatalf("Optimize(%s) = %s kept the duplicate operand", lhs, out)
		}
		checkEquivalent(t, l, lhs, out, "Optimize of p ⊗ p")
	}
}

// TestParallelNotIdempotent documents why ⊕ has no idempotence law: A ⊕ A
// requires two distinct A records, so incL(A ⊕ A) ≠ incL(A) in general.
func TestParallelNotIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	foundCounterexample := false
	for trial := 0; trial < 50 && !foundCounterexample; trial++ {
		l := randomLog(t, rng)
		ix := eval.NewIndex(l)
		a := eval.EvalSet(ix, pattern.MustParse("A"))
		aa := eval.EvalSet(ix, pattern.MustParse("A & A"))
		if !a.Equal(aa) {
			foundCounterexample = true
		}
	}
	if !foundCounterexample {
		t.Error("never saw incL(A) != incL(A & A); generator too weak?")
	}
}

func TestOptimizerDropsDuplicateChoiceOperands(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"A | A", "A"},
		{"A | B | A", "A | B"},
		{"(X -> Y) | (X -> Y)", "X -> Y"},
		{"A | A | A | A", "A"},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			out, ex := Optimize(pattern.MustParse(tt.in), UniformStats{})
			want := pattern.MustParse(tt.want)
			if !pattern.Equal(out, want) {
				t.Errorf("Optimize(%s) = %s, want %s (steps %v)", tt.in, out, want, ex.Steps)
			}
			hasNote := false
			for _, s := range ex.Steps {
				if strings.Contains(s, "duplicate choice") {
					hasNote = true
				}
			}
			if !hasNote {
				t.Errorf("no dedup note in %v", ex.Steps)
			}
		})
	}
}

func TestOptimizerKeepsParallelDuplicates(t *testing.T) {
	out, _ := Optimize(pattern.MustParse("A & A"), UniformStats{})
	if !pattern.Equal(out, pattern.MustParse("A & A")) {
		t.Errorf("A & A rewrote to %s (parallel must keep duplicates)", out)
	}
	out, _ = Optimize(pattern.MustParse("A & A & A"), UniformStats{})
	if pattern.Operators(out) != 2 {
		t.Errorf("A & A & A lost operands: %s", out)
	}
}
