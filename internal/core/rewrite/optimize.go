package rewrite

import (
	"fmt"
	"math"
	"sort"

	"wlq/internal/core/pattern"
)

// Step is one applied Theorem 2–5 law with its estimated cost effect.
// Before and After bracket the optimization pass that applied the law:
// laws fired by the same pass (e.g. several chains re-bracketed bottom-up)
// share the pass's cost delta, because their effects interact and are not
// separable per chain.
type Step struct {
	// Law describes the transformation, e.g. "factored 2 choice(s)".
	Law string
	// Theorem cites the licensing result(s), e.g. "Theorem 5".
	Theorem string
	// Before and After are the estimated Lemma 1 costs around the pass.
	Before, After float64
}

// Optimize rewrites p into an equivalent pattern with lower estimated cost,
// using only the Theorem 2–5 laws:
//
//  1. choice factoring (inverse distributivity, Theorem 5) to fixpoint;
//  2. dynamic-programming re-bracketing of ⊙/≺ chains (Theorems 2 and 4);
//  3. operand reordering plus left-deep re-bracketing of ⊗ and ⊕ chains
//     (Theorems 2 and 3), smallest estimated operand first.
//
// The result always satisfies incL(Optimize(p)) = incL(p). Optimize never
// returns a pattern costlier than its input. The Trace is the run's one
// report: both patterns with their estimates and the laws applied.
func Optimize(p pattern.Node, stats Stats) (pattern.Node, Trace) {
	return OptimizeWith(p, stats, ModelSelectivities())
}

// OptimizeWith is Optimize with explicit selectivities: every cost the
// passes compare is estimated with sel (zero fields read as the model
// constants), so different numbers can change which bracketing and operand
// order win. The rewrite laws applied are identical — only the ranking
// differs. It is the seam the tests and the layer benchmark use to show the
// ranking responds to its inputs.
func OptimizeWith(p pattern.Node, stats Stats, sel Selectivities) (pattern.Node, Trace) {
	est := NewEstimator(stats)
	est.sel = sel.withDefaults()
	// No pass mutates its input, so the clone is both the trace's copy of
	// the input and the starting plan.
	out := pattern.Clone(p)
	tr := Trace{Input: out, Before: est.Estimate(out), Selectivities: est.sel}

	// Pass 1: factoring.
	factored := out
	fired := 0
	for pass := 0; pass < 10; pass++ {
		roundFired := 0
		for _, op := range AllOps {
			if op == pattern.OpChoice {
				continue
			}
			var n int
			factored, n = ApplyEverywhere(factored, factorLeft(op))
			roundFired += n
			factored, n = ApplyEverywhere(factored, factorRight(op))
			roundFired += n
		}
		fired += roundFired
		if roundFired == 0 {
			break
		}
	}
	if fired > 0 && est.Cost(factored) <= est.Cost(out) {
		before := est.Cost(out)
		out = factored
		note := fmt.Sprintf("factored %d choice(s)", fired)
		tr.Steps = append(tr.Steps, note)
		tr.Details = append(tr.Details, Step{
			Law: note, Theorem: "Theorem 5", Before: before, After: est.Cost(out),
		})
	}

	// Pass 2 + 3: chain re-bracketing, bottom-up over the whole tree.
	rebracketed, steps := rebracket(out, est)
	if len(steps) > 0 && est.Cost(rebracketed) <= est.Cost(out) {
		before := est.Cost(out)
		out = rebracketed
		after := est.Cost(out)
		for _, st := range steps {
			st.Before, st.After = before, after
			tr.Steps = append(tr.Steps, st.Law)
			tr.Details = append(tr.Details, st)
		}
	}

	tr.Output, tr.After = out, est.Estimate(out)
	return out, tr
}

// chainKind classifies an operator for chain flattening: ⊙ and ≺ form one
// interchangeable family (Theorem 4); ⊗ and ⊕ each form their own.
func chainKind(op pattern.Op) int {
	switch op {
	case pattern.OpConsecutive, pattern.OpSequential:
		return 1
	case pattern.OpParallel:
		return 2
	case pattern.OpChoice:
		return 3
	default:
		return 0
	}
}

// rebracket walks the tree bottom-up; at every maximal chain of one kind it
// re-brackets (and, for commutative kinds, reorders) for minimal estimated
// cost. The returned steps carry law text and theorem citations; the caller
// fills in the cost bracket.
func rebracket(p pattern.Node, est *Estimator) (pattern.Node, []Step) {
	var steps []Step
	var rec func(pattern.Node) pattern.Node
	rec = func(n pattern.Node) pattern.Node {
		b, ok := n.(*pattern.Binary)
		if !ok {
			return n
		}
		kind := chainKind(b.Op)
		operands, ops := flattenChain(b, kind)
		for i, o := range operands {
			operands[i] = rec(o) // optimize below the chain first
		}
		if b.Op == pattern.OpChoice {
			if deduped := dedupOperands(operands); len(deduped) < len(operands) {
				steps = append(steps, Step{
					Law:     fmt.Sprintf("dropped %d duplicate choice operand(s)", len(operands)-len(deduped)),
					Theorem: "idempotence (derived from Definition 4)",
				})
				operands = deduped
				ops = ops[:len(operands)-1]
				if len(operands) == 1 {
					return operands[0]
				}
			}
		}
		if len(operands) < 3 {
			// A 2-operand "chain" has a single bracketing; for commutative
			// ops, ordering the cheaper operand left still helps the joins'
			// inner loop but not the estimate; keep the input shape.
			return &pattern.Binary{Op: b.Op, Left: operands[0], Right: operands[len(operands)-1]}
		}
		var rebuilt pattern.Node
		var step Step
		if b.Op.Commutative() {
			rebuilt, step = rebuildCommutative(b.Op, operands, est)
		} else {
			rebuilt, step = rebuildDP(operands, ops, est)
		}
		if step.Law != "" {
			steps = append(steps, step)
		}
		return rebuilt
	}
	return rec(pattern.Clone(p)), steps
}

// flattenChain collects the maximal same-kind chain rooted at b into its
// operand list and the operator sequence between adjacent operands.
func flattenChain(b *pattern.Binary, kind int) (operands []pattern.Node, ops []pattern.Op) {
	var rec func(n pattern.Node)
	rec = func(n pattern.Node) {
		if nb, ok := n.(*pattern.Binary); ok && chainKind(nb.Op) == kind {
			rec(nb.Left)
			ops = append(ops, nb.Op)
			rec(nb.Right)
			return
		}
		operands = append(operands, n)
	}
	rec(b)
	return operands, ops
}

// rebuildDP chooses the cheapest bracketing of a non-commutative ⊙/≺ chain
// by interval dynamic programming (the matrix-chain pattern). Operand order
// and the operator sequence are fixed; Theorems 2 and 4 license every
// bracketing.
func rebuildDP(operands []pattern.Node, ops []pattern.Op, est *Estimator) (pattern.Node, Step) {
	n := len(operands)
	type cell struct {
		est   Estimate
		split int
	}
	dp := make([][]cell, n)
	for i := range dp {
		dp[i] = make([]cell, n)
		dp[i][i] = cell{est: est.Estimate(operands[i])}
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			best := cell{est: Estimate{Cost: math.Inf(1)}}
			for k := i; k < j; k++ {
				combined := est.Combine(ops[k], dp[i][k].est, dp[k+1][j].est)
				if combined.Cost < best.est.Cost {
					best = cell{est: combined, split: k}
				}
			}
			dp[i][j] = best
		}
	}
	var build func(i, j int) pattern.Node
	build = func(i, j int) pattern.Node {
		if i == j {
			return operands[i]
		}
		k := dp[i][j].split
		return &pattern.Binary{Op: ops[k], Left: build(i, k), Right: build(k+1, j)}
	}
	out := build(0, n-1)
	return out, Step{
		Law:     fmt.Sprintf("re-bracketed %d-operand %s chain", n, ops[0].Name()),
		Theorem: "Theorems 2, 4",
	}
}

// dedupOperands removes structurally equal duplicates from a ⊗ chain's
// operand list (the derived idempotence law: incL(p ⊗ p) = incL(p)).
// First occurrences are kept in order.
func dedupOperands(operands []pattern.Node) []pattern.Node {
	out := make([]pattern.Node, 0, len(operands))
	for _, o := range operands {
		dup := false
		for _, kept := range out {
			if pattern.Equal(o, kept) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, o)
		}
	}
	return out
}

// rebuildCommutative reorders a ⊗ or ⊕ chain smallest-estimate first and
// rebuilds it left-deep, keeping intermediate results small (greedy; exact
// ordering is a join-ordering problem). Reordering is licensed by Theorem 3,
// re-bracketing by Theorem 2.
func rebuildCommutative(op pattern.Op, operands []pattern.Node, est *Estimator) (pattern.Node, Step) {
	type ranked struct {
		node pattern.Node
		est  Estimate
		pos  int
	}
	rs := make([]ranked, len(operands))
	for i, o := range operands {
		rs[i] = ranked{node: o, est: est.Estimate(o), pos: i}
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].est.Card != rs[j].est.Card {
			return rs[i].est.Card < rs[j].est.Card
		}
		return rs[i].pos < rs[j].pos
	})
	acc := rs[0].node
	for _, r := range rs[1:] {
		acc = &pattern.Binary{Op: op, Left: acc, Right: r.node}
	}
	return acc, Step{
		Law:     fmt.Sprintf("reordered %d-operand %s chain", len(operands), op.Name()),
		Theorem: "Theorems 2, 3",
	}
}
