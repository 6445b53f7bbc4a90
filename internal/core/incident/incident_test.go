package incident

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSortsAndAccessors(t *testing.T) {
	o := New(2, 9, 5, 7)
	if o.WID() != 2 {
		t.Errorf("WID = %d", o.WID())
	}
	if o.First() != 5 || o.Last() != 9 || o.Len() != 3 {
		t.Errorf("first/last/len = %d/%d/%d, want 5/9/3", o.First(), o.Last(), o.Len())
	}
	want := []uint64{5, 7, 9}
	for i, s := range o.Seqs() {
		if s != want[i] {
			t.Errorf("Seqs[%d] = %d, want %d", i, s, want[i])
		}
		if o.Seq(i) != want[i] {
			t.Errorf("Seq(%d) = %d, want %d", i, o.Seq(i), want[i])
		}
	}
}

func TestNewPanics(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"empty", func() { New(1) }},
		{"duplicate", func() { New(1, 3, 3) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			tt.fn()
		})
	}
}

func TestSeqsIsACopy(t *testing.T) {
	o := New(1, 1, 2)
	s := o.Seqs()
	s[0] = 99
	if o.First() != 1 {
		t.Error("Seqs() exposes internal storage")
	}
}

func TestContains(t *testing.T) {
	o := New(1, 2, 4, 6)
	for _, seq := range []uint64{2, 4, 6} {
		if !o.Contains(seq) {
			t.Errorf("Contains(%d) = false", seq)
		}
	}
	for _, seq := range []uint64{1, 3, 5, 7} {
		if o.Contains(seq) {
			t.Errorf("Contains(%d) = true", seq)
		}
	}
}

func TestIsZero(t *testing.T) {
	var zero Incident
	if !zero.IsZero() || New(1, 1).IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestEqualAndCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Incident
		cmp  int
	}{
		{"equal", New(1, 2, 5), New(1, 5, 2), 0},
		{"wid orders first", New(1, 9), New(2, 1), -1},
		{"first orders", New(1, 2), New(1, 3), -1},
		{"last orders", New(1, 2, 5), New(1, 2, 7), -1},
		{"length orders", New(1, 2, 7), New(1, 2, 5, 7), -1},
		{"lexicographic", New(1, 2, 4, 7), New(1, 2, 5, 7), -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.a.Compare(tt.b)
			if sign(got) != tt.cmp {
				t.Errorf("Compare = %d, want sign %d", got, tt.cmp)
			}
			if sign(tt.b.Compare(tt.a)) != -tt.cmp {
				t.Error("Compare not antisymmetric")
			}
			if (tt.cmp == 0) != tt.a.Equal(tt.b) {
				t.Error("Equal disagrees with Compare")
			}
		})
	}
}

func sign(i int) int {
	switch {
	case i < 0:
		return -1
	case i > 0:
		return 1
	default:
		return 0
	}
}

func TestDisjointAndUnion(t *testing.T) {
	a := New(1, 1, 3)
	b := New(1, 2, 4)
	c := New(1, 3, 5)
	otherWID := New(2, 1, 3)

	if !a.Disjoint(b) || a.Disjoint(c) {
		t.Error("Disjoint wrong")
	}
	if !a.Disjoint(otherWID) {
		t.Error("different instances must be disjoint")
	}

	u, ok := a.Union(b)
	if !ok {
		t.Fatal("Union of disjoint incidents failed")
	}
	if !u.Equal(New(1, 1, 2, 3, 4)) {
		t.Errorf("Union = %v", u)
	}
	if _, ok := a.Union(c); ok {
		t.Error("Union of overlapping incidents should fail")
	}
	if _, ok := a.Union(otherWID); ok {
		t.Error("Union across instances should fail")
	}
}

func TestConcat(t *testing.T) {
	a := New(1, 1, 2)
	b := New(1, 3, 5)
	got := a.Concat(b)
	if !got.Equal(New(1, 1, 2, 3, 5)) {
		t.Errorf("Concat = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Concat with overlap should panic")
		}
	}()
	b.Concat(a)
}

func TestIncidentString(t *testing.T) {
	if got := New(2, 9, 5).String(); got != "wid=2:{5,9}" {
		t.Errorf("String = %q", got)
	}
}

// Property: Union agrees with a set-theoretic reference implementation.
func TestUnionMatchesReference(t *testing.T) {
	f := func(seedA, seedB []uint8) bool {
		toSeqs := func(raw []uint8) []uint64 {
			m := map[uint64]struct{}{}
			for _, r := range raw {
				m[uint64(r%32)+1] = struct{}{}
			}
			out := make([]uint64, 0, len(m))
			for s := range m {
				out = append(out, s)
			}
			return out
		}
		sa, sb := toSeqs(seedA), toSeqs(seedB)
		if len(sa) == 0 || len(sb) == 0 {
			return true
		}
		a, b := New(1, sa...), New(1, sb...)
		u, ok := a.Union(b)
		overlap := false
		for _, s := range sa {
			if b.Contains(s) {
				overlap = true
			}
		}
		if overlap != !ok {
			return false
		}
		if !ok {
			return true
		}
		ref := map[uint64]struct{}{}
		for _, s := range append(sa, sb...) {
			ref[s] = struct{}{}
		}
		refSeqs := make([]uint64, 0, len(ref))
		for s := range ref {
			refSeqs = append(refSeqs, s)
		}
		sort.Slice(refSeqs, func(i, j int) bool { return refSeqs[i] < refSeqs[j] })
		if u.Len() != len(refSeqs) {
			return false
		}
		for i, s := range refSeqs {
			if u.Seq(i) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSetNormalization(t *testing.T) {
	var s Set
	s.Add(New(2, 5), New(1, 3), New(1, 1), New(1, 3)) // one duplicate
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 after dedup", s.Len())
	}
	order := []Incident{New(1, 1), New(1, 3), New(2, 5)}
	for i, want := range order {
		if !s.At(i).Equal(want) {
			t.Errorf("At(%d) = %v, want %v", i, s.At(i), want)
		}
	}
}

func TestZeroSetUsable(t *testing.T) {
	var s Set
	if !s.IsEmpty() || s.Len() != 0 {
		t.Error("zero Set not empty")
	}
	if s.Contains(New(1, 1)) {
		t.Error("empty set Contains = true")
	}
	if got := s.String(); got != "{}" {
		t.Errorf("String = %q", got)
	}
}

func TestSetContains(t *testing.T) {
	s := NewSet(New(1, 1), New(1, 3, 4), New(2, 2))
	if !s.Contains(New(1, 4, 3)) {
		t.Error("Contains missed an equal incident")
	}
	if s.Contains(New(1, 3)) {
		t.Error("Contains found a non-member")
	}
}

func TestSetEqual(t *testing.T) {
	a := NewSet(New(1, 1), New(1, 2))
	b := NewSet(New(1, 2), New(1, 1), New(1, 1)) // different order + dup
	c := NewSet(New(1, 1))
	if !a.Equal(b) {
		t.Error("equal sets reported unequal")
	}
	if a.Equal(c) {
		t.Error("unequal sets reported equal")
	}
}

func TestSetUnion(t *testing.T) {
	a := NewSet(New(1, 1), New(1, 2))
	b := NewSet(New(1, 2), New(2, 1))
	u := a.Union(b)
	if u.Len() != 3 {
		t.Errorf("Union Len = %d, want 3", u.Len())
	}
	if !u.Contains(New(2, 1)) || !u.Contains(New(1, 1)) {
		t.Error("Union missing members")
	}
	// Inputs unchanged.
	if a.Len() != 2 || b.Len() != 2 {
		t.Error("Union mutated inputs")
	}
}

func TestSetFilterWIDAndWIDs(t *testing.T) {
	s := NewSet(New(1, 1), New(3, 1), New(1, 5), New(2, 2))
	f := s.FilterWID(1)
	if f.Len() != 2 || f.At(0).WID() != 1 || f.At(1).WID() != 1 {
		t.Errorf("FilterWID = %v", f)
	}
	wids := s.WIDs()
	want := []uint64{1, 2, 3}
	if len(wids) != 3 {
		t.Fatalf("WIDs = %v", wids)
	}
	for i := range want {
		if wids[i] != want[i] {
			t.Errorf("WIDs = %v, want %v", wids, want)
		}
	}
}

// Property: a Set built from random incidents in random order always equals
// the Set built from the same incidents sorted, and Len never exceeds input.
func TestSetCanonicalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		incs := make([]Incident, 0, n)
		for i := 0; i < n; i++ {
			seqCount := 1 + rng.Intn(3)
			seqs := map[uint64]struct{}{}
			for len(seqs) < seqCount {
				seqs[uint64(rng.Intn(10)+1)] = struct{}{}
			}
			flat := make([]uint64, 0, seqCount)
			for s := range seqs {
				flat = append(flat, s)
			}
			incs = append(incs, New(uint64(rng.Intn(3)+1), flat...))
		}
		a := NewSet(incs...)
		shuffled := append([]Incident(nil), incs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := NewSet(shuffled...)
		if !a.Equal(b) {
			t.Fatalf("trial %d: canonical form depends on insertion order", trial)
		}
		if a.Len() > n {
			t.Fatalf("trial %d: Len %d > input %d", trial, a.Len(), n)
		}
		for i := 1; i < a.Len(); i++ {
			if a.At(i-1).Compare(a.At(i)) >= 0 {
				t.Fatalf("trial %d: set not strictly ordered", trial)
			}
		}
	}
}

func TestSetIntersect(t *testing.T) {
	a := NewSet(New(1, 1), New(1, 2), New(2, 1))
	b := NewSet(New(1, 2), New(2, 1), New(3, 5))
	got := a.Intersect(b)
	want := NewSet(New(1, 2), New(2, 1))
	if !got.Equal(want) {
		t.Errorf("Intersect = %s, want %s", got, want)
	}
	if !a.Intersect(NewSet()).Equal(NewSet()) {
		t.Error("Intersect with empty should be empty")
	}
	// Inputs untouched.
	if a.Len() != 3 || b.Len() != 3 {
		t.Error("Intersect mutated inputs")
	}
}

func TestSetDifference(t *testing.T) {
	a := NewSet(New(1, 1), New(1, 2), New(2, 1))
	b := NewSet(New(1, 2))
	got := a.Difference(b)
	want := NewSet(New(1, 1), New(2, 1))
	if !got.Equal(want) {
		t.Errorf("Difference = %s, want %s", got, want)
	}
	if !a.Difference(NewSet()).Equal(a) {
		t.Error("Difference with empty should be identity")
	}
	if !NewSet().Difference(a).Equal(NewSet()) {
		t.Error("empty Difference should be empty")
	}
}

// Property: A = (A ∩ B) ∪ (A \ B) and the two parts are disjoint.
func TestSetAlgebraProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 80; trial++ {
		mk := func() *Set {
			n := rng.Intn(12)
			incs := make([]Incident, 0, n)
			for i := 0; i < n; i++ {
				incs = append(incs, New(uint64(rng.Intn(2)+1), uint64(rng.Intn(6)+1)))
			}
			return NewSet(incs...)
		}
		a, b := mk(), mk()
		inter := a.Intersect(b)
		diff := a.Difference(b)
		if !inter.Union(diff).Equal(a) {
			t.Fatalf("trial %d: (A∩B)∪(A\\B) != A", trial)
		}
		if got := inter.Intersect(diff); got.Len() != 0 {
			t.Fatalf("trial %d: intersection and difference overlap: %s", trial, got)
		}
	}
}

// TestMergeSortedIsNewSet: however canonical runs are cut out of a set —
// disjoint ranges (the precondition: they concatenate), interleaved wids or
// overlapping copies (it is broken: the sort takes over), empty runs — their
// merge is the set NewSet builds from all of them.
func TestMergeSortedIsNewSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		var all []Incident
		for n := rng.Intn(60); n > 0; n-- {
			a := uint64(rng.Intn(6) + 1)
			all = append(all, New(uint64(rng.Intn(8)+1), a, a+uint64(rng.Intn(4)+1)))
		}
		k := rng.Intn(5) + 1
		runs := make([][]Incident, k)
		for _, inc := range all {
			switch round % 3 {
			case 0: // by wid range: the runs concatenate
				runs[int(inc.WID())*k/9] = append(runs[int(inc.WID())*k/9], inc)
			case 1: // by wid residue: the runs interleave
				runs[int(inc.WID())%k] = append(runs[int(inc.WID())%k], inc)
			default: // anywhere, sometimes twice: the runs overlap
				for copies := 1 + rng.Intn(3)/2; copies > 0; copies-- {
					i := rng.Intn(k)
					runs[i] = append(runs[i], inc)
				}
			}
		}
		for i := range runs {
			runs[i] = NewSet(runs[i]...).Incidents()
		}
		got, want := MergeSorted(runs...), NewSet(all...)
		if !got.Equal(want) || got.String() != want.String() {
			t.Fatalf("round %d: MergeSorted(%v) = %v, want %v", round, runs, got, want)
		}
	}
	if got := MergeSorted(); got.Len() != 0 {
		t.Fatalf("MergeSorted() = %v", got)
	}
}
