package pattern

import (
	"testing"

	"wlq/internal/predicate"
)

func TestOpMetadata(t *testing.T) {
	tests := []struct {
		op     Op
		str    string
		name   string
		symbol string
		comm   bool
	}{
		{OpConsecutive, ".", "consecutive", "⊙", false},
		{OpSequential, "->", "sequential", "≺", false},
		{OpChoice, "|", "choice", "⊗", true},
		{OpParallel, "&", "parallel", "⊕", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.op.String() != tt.str || tt.op.Name() != tt.name ||
				tt.op.Symbol() != tt.symbol || tt.op.Commutative() != tt.comm {
				t.Errorf("metadata mismatch for %v", tt.op)
			}
		})
	}
}

func TestConstructorsAndString(t *testing.T) {
	tests := []struct {
		name string
		node Node
		want string
	}{
		{"atom", NewAtom("A"), "A"},
		{"negated atom", NewNegAtom("A"), "!A"},
		{"quoted atom", NewAtom("two words"), `"two words"`},
		{"quoted empty", NewAtom(""), `""`},
		{"quoted leading digit", NewAtom("9lives"), `"9lives"`},
		{"consecutive", Consecutive(NewAtom("A"), NewAtom("B")), "A . B"},
		{"sequential", Sequential(NewAtom("A"), NewAtom("B")), "A -> B"},
		{"choice", Choice(NewAtom("A"), NewAtom("B")), "A | B"},
		{"parallel", Parallel(NewAtom("A"), NewAtom("B")), "A & B"},
		{
			"precedence omits parens",
			Choice(Sequential(NewAtom("A"), NewAtom("B")), NewAtom("C")),
			"A -> B | C",
		},
		{
			"parens kept when needed",
			Sequential(Choice(NewAtom("A"), NewAtom("B")), NewAtom("C")),
			"(A | B) -> C",
		},
		{
			"right-nested same-op keeps parens",
			Sequential(NewAtom("A"), Sequential(NewAtom("B"), NewAtom("C"))),
			"A -> (B -> C)",
		},
		{
			"left-nested same-op drops parens",
			Sequential(Sequential(NewAtom("A"), NewAtom("B")), NewAtom("C")),
			"A -> B -> C",
		},
		{
			"parallel binds tighter than choice",
			Choice(Parallel(NewAtom("A"), NewAtom("B")), NewAtom("C")),
			"A & B | C",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.node.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestPretty(t *testing.T) {
	p := Sequential(NewNegAtom("A"), Parallel(NewAtom("B"), NewAtom("C")))
	want := "¬A ≺ (B ⊕ C)"
	if got := Pretty(p); got != want {
		t.Errorf("Pretty = %q, want %q", got, want)
	}
}

func TestCombine(t *testing.T) {
	got := Combine(OpParallel, NewAtom("A"), NewAtom("B"), NewAtom("C"))
	want := Parallel(Parallel(NewAtom("A"), NewAtom("B")), NewAtom("C"))
	if !Equal(got, want) {
		t.Errorf("Combine = %s, want %s", got, want)
	}
	if single := Combine(OpChoice, NewAtom("A")); !Equal(single, NewAtom("A")) {
		t.Errorf("Combine of one = %s", single)
	}
	defer func() {
		if recover() == nil {
			t.Error("Combine() with no patterns should panic")
		}
	}()
	Combine(OpChoice)
}

func TestCloneIndependence(t *testing.T) {
	g, err := predicate.Parse("balance>5000")
	if err != nil {
		t.Fatal(err)
	}
	orig := Sequential(&Atom{Activity: "A", Guards: []predicate.Guard{g}}, NewAtom("B"))
	cp := Clone(orig).(*Binary)
	if !Equal(orig, cp) {
		t.Fatal("clone not Equal to original")
	}
	cp.Left.(*Atom).Activity = "Z"
	cp.Left.(*Atom).Guards[0] = predicate.Guard{}
	if orig.Left.(*Atom).Activity != "A" {
		t.Error("Clone shares atom")
	}
	if orig.Left.(*Atom).Guards[0].Attr != "balance" {
		t.Error("Clone shares guard slice")
	}
}

func TestEqual(t *testing.T) {
	g1, _ := predicate.Parse("x>1")
	g2, _ := predicate.Parse("x>2")
	tests := []struct {
		name string
		a, b Node
		want bool
	}{
		{"same atoms", NewAtom("A"), NewAtom("A"), true},
		{"different names", NewAtom("A"), NewAtom("B"), false},
		{"negation differs", NewAtom("A"), NewNegAtom("A"), false},
		{"atom vs binary", NewAtom("A"), Choice(NewAtom("A"), NewAtom("A")), false},
		{"same tree", Sequential(NewAtom("A"), NewAtom("B")), Sequential(NewAtom("A"), NewAtom("B")), true},
		{"op differs", Sequential(NewAtom("A"), NewAtom("B")), Consecutive(NewAtom("A"), NewAtom("B")), false},
		{"children swapped", Choice(NewAtom("A"), NewAtom("B")), Choice(NewAtom("B"), NewAtom("A")), false},
		{
			"guards equal",
			&Atom{Activity: "A", Guards: []predicate.Guard{g1}},
			&Atom{Activity: "A", Guards: []predicate.Guard{g1}},
			true,
		},
		{
			"guards differ",
			&Atom{Activity: "A", Guards: []predicate.Guard{g1}},
			&Atom{Activity: "A", Guards: []predicate.Guard{g2}},
			false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Equal(tt.a, tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMetrics(t *testing.T) {
	// ((A -> B) | (!A & C)) — 4 atoms, 3 operators.
	p := Choice(
		Sequential(NewAtom("A"), NewAtom("B")),
		Parallel(NewNegAtom("A"), NewAtom("C")),
	)
	if got := Size(p); got != 7 {
		t.Errorf("Size = %d, want 7", got)
	}
	if got := Operators(p); got != 3 {
		t.Errorf("Operators = %d, want 3", got)
	}

	atoms := Atoms(p)
	if len(atoms) != 4 || atoms[0].Activity != "A" || atoms[3].Activity != "C" {
		t.Errorf("Atoms = %v", atoms)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	p := Sequential(Sequential(NewAtom("A"), NewAtom("B")), NewAtom("C"))
	count := 0
	Walk(p, func(n Node) bool {
		count++
		_, isBinary := n.(*Binary)
		return !isBinary || count == 1 // descend only from the root
	})
	// Root binary (descend) -> left binary (stop) + right atom C.
	if count != 3 {
		t.Errorf("visited %d nodes, want 3", count)
	}
}
