package eval

import (
	"math/rand"
	"testing"

	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/wlog"
)

func TestBindingsSimple(t *testing.T) {
	l := buildLog(t, []string{"A", "B", "A", "B"}) // START=1 A=2 B=3 A=4 B=5
	e := New(NewIndex(l), Options{})

	tests := []struct {
		query string
		inc   incident.Incident
		want  map[int]uint64
	}{
		{"A", incident.New(1, 2), map[int]uint64{0: 2}},
		{"A -> B", incident.New(1, 2, 5), map[int]uint64{0: 2, 1: 5}},
		{"A . B", incident.New(1, 4, 5), map[int]uint64{0: 4, 1: 5}},
		// Parallel shuffle: atom 0 (A) matched the later record.
		{"A & B", incident.New(1, 3, 4), map[int]uint64{0: 4, 1: 3}},
		// Choice: only the taken branch's atom binds.
		{"A | Z", incident.New(1, 2), map[int]uint64{0: 2}},
		{"Z | A", incident.New(1, 2), map[int]uint64{1: 2}},
		// Nested: (A -> B) -> (A -> B).
		{"(A -> B) -> (A -> B)", incident.New(1, 2, 3, 4, 5),
			map[int]uint64{0: 2, 1: 3, 2: 4, 3: 5}},
	}
	for _, tt := range tests {
		t.Run(tt.query+"/"+tt.inc.String(), func(t *testing.T) {
			p := pattern.MustParse(tt.query)
			got, ok := e.Bindings(p, tt.inc)
			if !ok {
				t.Fatalf("Bindings failed for a valid incident")
			}
			if len(got) != len(tt.want) {
				t.Fatalf("bindings = %v, want %v", got, tt.want)
			}
			for idx, seq := range tt.want {
				if got[idx] != seq {
					t.Errorf("atom %d bound to %d, want %d", idx, got[idx], seq)
				}
			}
		})
	}

	// Non-incidents yield no bindings.
	if _, ok := e.Bindings(pattern.MustParse("B -> A"), incident.New(1, 2, 3)); ok {
		t.Error("Bindings succeeded for a non-incident")
	}
}

func TestBindingsBacktrackingAcrossFailedBranches(t *testing.T) {
	// The left cut A(2) fails the right side; the search must retry with
	// the later A(4) without residue from the failed attempt.
	l := buildLog(t, []string{"A", "C", "A", "B"}) // A=2 C=3 A=4 B=5
	e := New(NewIndex(l), Options{})
	p := pattern.MustParse("A . B")
	got, ok := e.Bindings(p, incident.New(1, 4, 5))
	if !ok || got[0] != 4 || got[1] != 5 {
		t.Errorf("bindings = %v, %v", got, ok)
	}
}

// TestBindingsFailedCutLeavesNoChoiceResidue: the first cut binds the left
// choice's !Z branch to B(2), then fails on the right; the cut that succeeds
// takes the other branch, so atom 0 must not stay bound to B(2).
func TestBindingsFailedCutLeavesNoChoiceResidue(t *testing.T) {
	l := buildLog(t, []string{"B", "C", "D"}) // B=2 C=3 D=4
	e := New(NewIndex(l), Options{})
	got, ok := e.Bindings(pattern.MustParse("(!Z | (B . C)) -> D"), incident.New(1, 2, 3, 4))
	if !ok || len(got) != 3 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Errorf("bindings = %v, %v; want map[1:2 2:3 3:4]", got, ok)
	}
}

// TestBindingsAgreeWithVerify: on random patterns and incidents from the
// evaluator, Bindings succeeds exactly when Verify does, and the bound
// records reassemble the incident (for patterns where every taken branch's
// atoms are bound, the bound seqs must be exactly the incident's seqs).
func TestBindingsAgreeWithVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	alphabet := []string{"A", "B", "C"}
	for trial := 0; trial < 60; trial++ {
		var b wlog.Builder
		wid := b.Start()
		for step := 0; step < 4+rng.Intn(6); step++ {
			if err := b.Emit(wid, alphabet[rng.Intn(len(alphabet))], nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		ix := NewIndex(b.MustBuild())
		e := New(ix, Options{})
		p := randomPattern(rng, 3, alphabet)
		for _, inc := range e.Eval(p).Incidents() {
			bindings, ok := e.Bindings(p, inc)
			if !ok {
				t.Fatalf("trial %d: Bindings failed for %s of %s", trial, inc, p)
			}
			// The bound seqs must form exactly the incident's record set.
			seen := map[uint64]int{}
			for _, seq := range bindings {
				seen[seq]++
			}
			if len(seen) != inc.Len() {
				t.Fatalf("trial %d: bindings %v cover %d records, incident has %d (%s of %s)",
					trial, bindings, len(seen), inc.Len(), inc, p)
			}
			for seq := range seen {
				if !inc.Contains(seq) {
					t.Fatalf("trial %d: binding to %d outside incident %s", trial, seq, inc)
				}
			}
			// Every bound atom must individually match its record.
			atoms := pattern.Atoms(p)
			for idx, seq := range bindings {
				rec, ok := ix.Record(inc.WID(), seq)
				if !ok {
					t.Fatalf("trial %d: bound record missing", trial)
				}
				a := atoms[idx]
				matches := rec.Activity == a.Activity
				if a.Negated {
					matches = !matches
				}
				if !matches {
					t.Fatalf("trial %d: atom %s bound to %s record", trial, a, rec.Activity)
				}
			}
		}
	}
}
