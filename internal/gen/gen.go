// Package gen builds synthetic workloads for tests and for the benchmark
// suite: random valid logs with controlled shape (instances, length,
// alphabet, skew, interleaving), precisely shaped single-instance logs for
// the Lemma 1 operator sweeps, and the adversarial log/pattern pair that
// attains Theorem 1's O(m^k) worst case.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"wlq/internal/core/pattern"
	"wlq/internal/wlog"
)

// Alphabet returns n synthetic activity names Act00..Act(n-1).
func Alphabet(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("Act%02d", i)
	}
	return names
}

// LogParams shapes RandomLog output.
type LogParams struct {
	// Instances is the number of workflow instances (≥ 1).
	Instances int
	// MeanLength is the mean number of activity records per instance
	// (exponential-ish: uniform in [1, 2·MeanLength)).
	MeanLength int
	// Alphabet lists the activity names to draw from; empty means
	// Alphabet(8).
	Alphabet []string
	// Skew ≥ 0 biases activity choice: 0 is uniform; larger values
	// concentrate probability on the low-index names (Zipf-like, s=Skew).
	Skew float64
	// CompleteFraction of instances receive an END record; the zero value
	// means all of them.
	CompleteFraction float64
	// Seed drives all randomness.
	Seed int64
}

// RandomLog generates a valid random log: instance traces of random
// activities, interleaved uniformly at random.
func RandomLog(p LogParams) (*wlog.Log, error) {
	if p.Instances < 1 {
		return nil, fmt.Errorf("gen: Instances %d < 1", p.Instances)
	}
	if p.MeanLength < 1 {
		return nil, fmt.Errorf("gen: MeanLength %d < 1", p.MeanLength)
	}
	alphabet := p.Alphabet
	if len(alphabet) == 0 {
		alphabet = Alphabet(8)
	}
	complete := p.CompleteFraction
	if complete == 0 {
		complete = 1
	}
	if complete < 0 || complete > 1 {
		return nil, fmt.Errorf("gen: CompleteFraction %g outside [0,1]", p.CompleteFraction)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	weights := zipfWeights(len(alphabet), p.Skew)

	type inst struct {
		wid       uint64
		remaining int
		complete  bool
	}
	var b wlog.Builder
	active := make([]*inst, p.Instances)
	for i := range active {
		active[i] = &inst{
			wid:       b.Start(),
			remaining: 1 + rng.Intn(2*p.MeanLength),
			complete:  rng.Float64() < complete,
		}
	}
	for len(active) > 0 {
		i := rng.Intn(len(active))
		in := active[i]
		act := alphabet[weightedPick(rng, weights)]
		if err := b.Emit(in.wid, act, nil, nil); err != nil {
			return nil, err
		}
		in.remaining--
		if in.remaining == 0 {
			if in.complete {
				if err := b.End(in.wid); err != nil {
					return nil, err
				}
			}
			active = append(active[:i], active[i+1:]...)
		}
	}
	return b.Build()
}

// MustRandomLog is RandomLog, panicking on error (fixtures, benchmarks).
func MustRandomLog(p LogParams) *wlog.Log {
	l, err := RandomLog(p)
	if err != nil {
		panic(err)
	}
	return l
}

// zipfWeights returns Zipf-like weights w_i ∝ 1/(i+1)^s; s=0 is uniform.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

func weightedPick(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	pick := rng.Float64() * total
	for i, w := range weights {
		pick -= w
		if pick < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Blocks builds a single-instance log whose activity trace is the
// concatenation of count copies of each name, in argument order:
// Blocks("A", 3, "B", 2) yields A A A B B. It is the shape used by the
// Lemma 1 sequential/parallel sweeps where |incL(A)| and |incL(B)| must be
// controlled exactly.
func Blocks(pairs ...any) *wlog.Log {
	if len(pairs)%2 != 0 {
		panic("gen.Blocks: want name/count pairs")
	}
	var b wlog.Builder
	wid := b.Start()
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic("gen.Blocks: name must be a string")
		}
		count, ok := pairs[i+1].(int)
		if !ok || count < 0 {
			panic("gen.Blocks: count must be a non-negative int")
		}
		for n := 0; n < count; n++ {
			if err := b.Emit(wid, name, nil, nil); err != nil {
				panic(err)
			}
		}
	}
	if err := b.End(wid); err != nil {
		panic(err)
	}
	return b.MustBuild()
}

// Alternating builds a single-instance log cycling through names `rounds`
// times: Alternating([]string{"A","B"}, 3) yields A B A B A B. It is the
// shape used by the consecutive sweep, where each adjacent (A,B) pair is a
// match.
func Alternating(names []string, rounds int) *wlog.Log {
	var b wlog.Builder
	wid := b.Start()
	for r := 0; r < rounds; r++ {
		for _, name := range names {
			if err := b.Emit(wid, name, nil, nil); err != nil {
				panic(err)
			}
		}
	}
	if err := b.End(wid); err != nil {
		panic(err)
	}
	return b.MustBuild()
}

// WorstCaseActivity is the activity name used by the Theorem 1 workload.
const WorstCaseActivity = "t"

// WorstCaseLog builds the Theorem 1 adversarial log: one instance whose m
// activity records all carry the same activity name t.
func WorstCaseLog(m int) *wlog.Log {
	return Blocks(WorstCaseActivity, m)
}

// WorstCasePattern builds the Theorem 1 adversarial pattern
// ((...((t ⊕ t) ⊕ t)...) ⊕ t) with k parallel operators (k+1 atoms).
func WorstCasePattern(k int) pattern.Node {
	atoms := make([]pattern.Node, k+1)
	for i := range atoms {
		atoms[i] = pattern.NewAtom(WorstCaseActivity)
	}
	return pattern.Combine(pattern.OpParallel, atoms...)
}

// ChainPattern folds the activity names left-associatively under op.
func ChainPattern(op pattern.Op, names ...string) pattern.Node {
	nodes := make([]pattern.Node, len(names))
	for i, n := range names {
		nodes[i] = pattern.NewAtom(n)
	}
	return pattern.Combine(op, nodes...)
}

// PatternParams shapes RandomPattern output.
type PatternParams struct {
	// Operators is the number of operator nodes (k of Theorem 1); the
	// pattern has Operators+1 atoms.
	Operators int
	// Alphabet lists the activity names to draw from; empty means
	// Alphabet(8).
	Alphabet []string
	// NegateProb is the probability an atom is negated.
	NegateProb float64
	// OpWeights gives relative weights for ⊙, ≺, ⊗, ⊕ in that order;
	// nil means uniform.
	OpWeights []float64
}

// RandomPattern generates a random pattern with exactly p.Operators
// operator nodes, shaped as a uniformly random binary tree.
func RandomPattern(rng *rand.Rand, p PatternParams) pattern.Node {
	alphabet := p.Alphabet
	if len(alphabet) == 0 {
		alphabet = Alphabet(8)
	}
	weights := p.OpWeights
	if weights == nil {
		weights = []float64{1, 1, 1, 1}
	}
	ops := []pattern.Op{
		pattern.OpConsecutive, pattern.OpSequential,
		pattern.OpChoice, pattern.OpParallel,
	}
	var build func(k int) pattern.Node
	build = func(k int) pattern.Node {
		if k == 0 {
			name := alphabet[rng.Intn(len(alphabet))]
			if rng.Float64() < p.NegateProb {
				return pattern.NewNegAtom(name)
			}
			return pattern.NewAtom(name)
		}
		left := rng.Intn(k) // operators in the left subtree
		return &pattern.Binary{
			Op:    ops[weightedPick(rng, weights)],
			Left:  build(left),
			Right: build(k - 1 - left),
		}
	}
	return build(p.Operators)
}
