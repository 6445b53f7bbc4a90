package gen

import (
	"math/rand"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
)

func TestAlphabet(t *testing.T) {
	a := Alphabet(3)
	if len(a) != 3 || a[0] != "Act00" || a[2] != "Act02" {
		t.Errorf("Alphabet(3) = %v", a)
	}
}

func TestRandomLogValidAndSized(t *testing.T) {
	l, err := RandomLog(LogParams{Instances: 10, MeanLength: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("invalid log: %v", err)
	}
	if got := len(l.WIDs()); got != 10 {
		t.Errorf("instances = %d, want 10", got)
	}
	// Rough size check: 10 instances with mean 20 activities plus
	// START/END records each.
	if l.Len() < 10*2 || l.Len() > 10*(2*20+2) {
		t.Errorf("suspicious log size %d", l.Len())
	}
}

func TestRandomLogDeterministic(t *testing.T) {
	p := LogParams{Instances: 5, MeanLength: 8, Seed: 42}
	a := MustRandomLog(p)
	b := MustRandomLog(p)
	if !a.Equal(b) {
		t.Error("same seed produced different logs")
	}
	p.Seed = 43
	if a.Equal(MustRandomLog(p)) {
		t.Error("different seeds produced identical logs")
	}
}

func TestRandomLogErrors(t *testing.T) {
	bad := []LogParams{
		{Instances: 0, MeanLength: 5},
		{Instances: 1, MeanLength: 0},
		{Instances: 1, MeanLength: 5, CompleteFraction: 2},
	}
	for _, p := range bad {
		if _, err := RandomLog(p); err == nil {
			t.Errorf("RandomLog(%+v): want error", p)
		}
	}
}

func TestRandomLogSkewConcentrates(t *testing.T) {
	alphabet := Alphabet(6)
	uniform := MustRandomLog(LogParams{Instances: 20, MeanLength: 50, Alphabet: alphabet, Seed: 7})
	skewed := MustRandomLog(LogParams{Instances: 20, MeanLength: 50, Alphabet: alphabet, Skew: 2.0, Seed: 7})
	count := func(lix *eval.Index, act string) int { return lix.ActivityCount(act) }
	uix, six := eval.NewIndex(uniform), eval.NewIndex(skewed)
	uShare := float64(count(uix, "Act00")) / float64(uniform.Len())
	sShare := float64(count(six, "Act00")) / float64(skewed.Len())
	if sShare <= uShare {
		t.Errorf("skew did not concentrate: uniform %.3f, skewed %.3f", uShare, sShare)
	}
}

func TestRandomLogCompleteFraction(t *testing.T) {
	l := MustRandomLog(LogParams{Instances: 30, MeanLength: 4, CompleteFraction: 0.5, Seed: 5})
	complete := 0
	for _, wid := range l.WIDs() {
		if l.InstanceComplete(wid) {
			complete++
		}
	}
	if complete == 0 || complete == 30 {
		t.Errorf("complete = %d of 30 at fraction 0.5", complete)
	}
}

func TestBlocks(t *testing.T) {
	l := Blocks("A", 3, "B", 2)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	ix := eval.NewIndex(l)
	if ix.ActivityCount("A") != 3 || ix.ActivityCount("B") != 2 {
		t.Errorf("counts wrong: A=%d B=%d", ix.ActivityCount("A"), ix.ActivityCount("B"))
	}
	// Sequential A->B must produce exactly 3*2 incidents on block layout.
	got := eval.EvalSet(ix, pattern.MustParse("A -> B"))
	if got.Len() != 6 {
		t.Errorf("A->B on blocks = %d incidents, want 6", got.Len())
	}
}

func TestBlocksPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Blocks("A") },
		func() { Blocks(1, 2) },
		func() { Blocks("A", -1) },
		func() { Blocks("A", "B") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}

func TestAlternating(t *testing.T) {
	l := Alternating([]string{"A", "B"}, 3)
	ix := eval.NewIndex(l)
	got := eval.EvalSet(ix, pattern.MustParse("A . B"))
	if got.Len() != 3 {
		t.Errorf("A.B on alternating = %d, want 3", got.Len())
	}
}

func TestWorstCase(t *testing.T) {
	l := WorstCaseLog(5)
	if l.Len() != 7 { // START + 5 + END
		t.Errorf("WorstCaseLog(5) has %d records", l.Len())
	}
	p := WorstCasePattern(2)
	if pattern.Operators(p) != 2 {
		t.Errorf("WorstCasePattern(2) has %d operators", pattern.Operators(p))
	}
	if got := p.String(); got != "t & t & t" {
		t.Errorf("pattern = %q", got)
	}
	// incL((t⊕t)⊕t) on m=5: ordered 3-subsets of 5 records as sets = C(5,3).
	ix := eval.NewIndex(l)
	got := eval.EvalSet(ix, p)
	if got.Len() != 10 {
		t.Errorf("worst case incidents = %d, want C(5,3)=10", got.Len())
	}
}

func TestChainPattern(t *testing.T) {
	p := ChainPattern(pattern.OpSequential, "A", "B", "C")
	if p.String() != "A -> B -> C" {
		t.Errorf("ChainPattern = %s", p)
	}
}

func TestRandomPatternOperatorCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k <= 8; k++ {
		p := RandomPattern(rng, PatternParams{Operators: k})
		if got := pattern.Operators(p); got != k {
			t.Errorf("RandomPattern(k=%d) has %d operators", k, got)
		}
	}
}

func TestRandomPatternNegation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sawNeg := false
	for i := 0; i < 50 && !sawNeg; i++ {
		p := RandomPattern(rng, PatternParams{Operators: 3, NegateProb: 0.5})
		for _, a := range pattern.Atoms(p) {
			if a.Negated {
				sawNeg = true
			}
		}
	}
	if !sawNeg {
		t.Error("NegateProb=0.5 never produced a negated atom")
	}
}

func TestRandomPatternOpWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Only sequential allowed.
	for i := 0; i < 20; i++ {
		p := RandomPattern(rng, PatternParams{Operators: 4, OpWeights: []float64{0.0001, 1000, 0.0001, 0.0001}})
		pattern.Walk(p, func(n pattern.Node) bool {
			if b, ok := n.(*pattern.Binary); ok && b.Op != pattern.OpSequential {
				t.Fatalf("unexpected operator %v", b.Op)
			}
			return true
		})
	}
}
