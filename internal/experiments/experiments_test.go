package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestInventory(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("experiments = %d, want 13 (E1..E13)", len(all))
	}
	seen := map[string]bool{}
	for i, e := range all {
		if e.ID == "" || e.Name == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] || seen[e.Name] {
			t.Errorf("duplicate id/name: %s/%s", e.ID, e.Name)
		}
		seen[e.ID], seen[e.Name] = true, true
	}
}

func TestFind(t *testing.T) {
	if e, ok := Find("E6"); !ok || e.Name != "thm1-worstcase" {
		t.Errorf("Find(E6) = %+v, %v", e, ok)
	}
	if e, ok := Find("lemma1-choice"); !ok || e.ID != "E4" {
		t.Errorf("Find(lemma1-choice) = %+v, %v", e, ok)
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) should miss")
	}
}

// TestAllExperimentsRunQuick smoke-runs every experiment in quick mode and
// checks for the failure markers experiments embed in their own output.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, true); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if len(out) == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			for _, bad := range []string{"MISMATCH", "FAIL", "NEVER FIRED"} {
				if strings.Contains(out, bad) {
					t.Errorf("%s output contains %q:\n%s", e.ID, bad, out)
				}
			}
		})
	}
}

// TestExamplesExactOutput pins the E1 experiment to the paper's answers.
func TestExamplesExactOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := runExamples(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"wid=2:{5,9}",     // Example 3 incident
		"wid=2:{4,5,9}",   // Example 5 incident
		"l14 UpdateRefer", // materialized records
		"l20 GetReimburse",
		"[MATCH]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q:\n%s", want, out)
		}
	}
}

func TestIncidentTreeOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := runIncidentTree(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"SeeDoctor ≺ (UpdateRefer ≺ GetReimburse)",
		"├── SeeDoctor",
		"postfix",
		"wid=2:{4,5,9}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E2 output missing %q:\n%s", want, out)
		}
	}
}

// TestShardedEvalExperiment pins E13's two claims: splitting the scan is
// answer-preserving at every goroutine count, and under an injected fault a
// strict caller loses the query while a partial one keeps the other seven
// eighths of the 80 instances and names the poisoned ten exactly.
func TestShardedEvalExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := runSharded(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"query lost",       // strict: the fault takes everything
		"partial (70/80)",  // partial: only the poisoned instances are excluded
		"10 (exact: true)", // ... and they are named exactly
		"fault isolation",  // the comparison table rendered
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E13 output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "equal 0") {
		t.Errorf("E13 reports a sharded/serial mismatch:\n%s", out)
	}
}

func TestChoose(t *testing.T) {
	tests := []struct {
		n, k int
		want float64
	}{
		{5, 3, 10}, {20, 4, 4845}, {4, 0, 1}, {4, 4, 1}, {4, 5, 0}, {4, -1, 0},
	}
	for _, tt := range tests {
		if got := choose(tt.n, tt.k); got != tt.want {
			t.Errorf("choose(%d,%d) = %g, want %g", tt.n, tt.k, got, tt.want)
		}
	}
}
