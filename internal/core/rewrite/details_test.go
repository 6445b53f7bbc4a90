package rewrite

import (
	"strings"
	"testing"

	"wlq/internal/core/pattern"
)

// TestDetailsFactoringCitesTheorem5: the per-law step record carries the
// theorem citation and a non-increasing cost bracket.
func TestDetailsFactoringCitesTheorem5(t *testing.T) {
	_, ex := Optimize(pattern.MustParse("(A -> B) | (A -> C)"), UniformStats{})
	if len(ex.Details) == 0 {
		t.Fatal("no detail steps for a factoring rewrite")
	}
	found := false
	for _, st := range ex.Details {
		if st.Theorem == "Theorem 5" && strings.Contains(st.Law, "factored") {
			found = true
			if st.After > st.Before {
				t.Errorf("factoring step cost increased: %g -> %g", st.Before, st.After)
			}
		}
		if st.Law == "" || st.Theorem == "" {
			t.Errorf("incomplete step: %+v", st)
		}
	}
	if !found {
		t.Errorf("no Theorem 5 factoring step in %+v", ex.Details)
	}
}

func TestDetailsDedupCitesIdempotence(t *testing.T) {
	_, ex := Optimize(pattern.MustParse("(A -> B) | (A -> B)"), UniformStats{})
	found := false
	for _, st := range ex.Details {
		if strings.Contains(st.Theorem, "idempotence") {
			found = true
		}
	}
	if !found {
		t.Errorf("no idempotence step for a duplicate choice, got %+v", ex.Details)
	}
}

func TestDetailsRebracketCitesTheorems(t *testing.T) {
	// A skewed chain forces the DP pass to move the cheap operand early.
	stats := skewedStats{counts: map[string]int{"R": 2, "X": 1000, "Y": 1000, "Z": 1000}}
	_, exSkew := Optimize(pattern.MustParse("X -> Y -> Z -> R"), stats)
	found := false
	for _, st := range exSkew.Details {
		if strings.Contains(st.Law, "re-bracketed") {
			found = true
			if !strings.Contains(st.Theorem, "Theorem") {
				t.Errorf("re-bracket step lacks a theorem citation: %+v", st)
			}
			if st.After > st.Before {
				t.Errorf("re-bracket pass cost increased: %g -> %g", st.Before, st.After)
			}
		}
	}
	if !found {
		t.Errorf("no re-bracket step for a skewed chain, got %+v", exSkew.Details)
	}
}

// TestDetailsEmptyWhenNoChange: a pattern the optimizer leaves alone yields
// no detail steps (an empty Details, not fabricated entries).
func TestDetailsEmptyWhenNoChange(t *testing.T) {
	_, ex := Optimize(pattern.MustParse("A"), UniformStats{})
	if len(ex.Details) != 0 {
		t.Errorf("details for an untouched atom: %+v", ex.Details)
	}
}

// TestExplainTraceCarriesDetails: the trace of a run that rewrote carries
// the step list.
func TestExplainTraceCarriesDetails(t *testing.T) {
	_, tr := Optimize(pattern.MustParse("(A -> B) | (A -> C)"), UniformStats{})
	if len(tr.Details) == 0 {
		t.Error("Optimize trace has no details")
	}
}
