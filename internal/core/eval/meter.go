package eval

import (
	"context"
	"sync/atomic"

	"wlq/internal/core/pattern"
	"wlq/internal/resilience"
)

// Per-operator cost accounting. Lemma 1 bounds the join work of each
// operator node by the sizes of its operand incident sets (n1, n2) and the
// atom counts of its operand patterns (k1, k2):
//
//	⊙, ≺ : O(n1·n2)
//	⊗    : O(n1·n2·min(k1,k2))
//	⊕    : O(n1·n2·(k1+k2))
//
// A Meter attributes the comparisons the evaluator actually performs to the
// nodes of one pattern plan, alongside the bound predicted from the actual
// per-instance operand sizes — so a metered query yields a measured-vs-
// predicted cost table (surfaced by internal/obs and the query service).
//
// Counters are atomic: the meter is shared by the workers of a parallel
// evaluation without locks. A worker does not touch them per operator
// application: it tallies each node's work in plain integers (nodeTally)
// and adds the tallies to the counters once, when its chunk of instances
// ends — also when the chunk ends in a failure.

// Meter collects per-node evaluation metrics for one plan. Build it with
// NewMeter over the exact pattern tree passed to the evaluator (a slot
// meters the node it was built for, by identity) and hand it to the
// evaluator via Options.Meter. A nil *Meter is valid and disables metering.
type Meter struct {
	order []pattern.Node // the plan in pre-order
	slots []NodeMetrics  // slots[i] meters order[i]
}

// NewMeter allocates metrics storage for every node of the plan.
func NewMeter(p pattern.Node) *Meter {
	m := &Meter{}
	pattern.Walk(p, func(n pattern.Node) bool {
		m.order = append(m.order, n)
		return true
	})
	m.slots = make([]NodeMetrics, len(m.order))
	for i, n := range m.order {
		nm := &m.slots[i]
		if b, ok := n.(*pattern.Binary); ok {
			nm.op = b.Op
			nm.k1 = len(pattern.Atoms(b.Left))
			nm.k2 = len(pattern.Atoms(b.Right))
		} else {
			nm.atom = true
		}
	}
	return m
}

// slot returns the metrics slot of the plan node n at pre-order position i,
// or nil when the meter is nil or was built over a different tree.
func (m *Meter) slot(i int, n pattern.Node) *NodeMetrics {
	if m == nil || i >= len(m.order) || m.order[i] != n {
		return nil
	}
	return &m.slots[i]
}

// NodeMetrics accumulates the measured work of one plan node across all
// instance evaluations. All counters are atomic; read them via Snapshot.
type NodeMetrics struct {
	op   pattern.Op // operator; zero for atoms
	atom bool
	k1   int // Lemma 1 k1: atoms in the left operand pattern
	k2   int // Lemma 1 k2: atoms in the right operand pattern

	evals       atomic.Uint64 // instance evaluations performed
	memoHits    atomic.Uint64 // evaluations answered from the sub-pattern memo
	leftInputs  atomic.Uint64 // Σ n1 over instance evaluations
	rightInputs atomic.Uint64 // Σ n2 over instance evaluations
	comparisons atomic.Uint64 // measured record-level comparisons
	outputs     atomic.Uint64 // incidents produced (post-normalize)
	predicted   atomic.Uint64 // Σ Lemma 1 bound, from the actual n1, n2
}

// predictedBound is the Lemma 1 join bound for one instance evaluation with
// operand sizes n1, n2 and static atom counts k1, k2.
func predictedBound(op pattern.Op, n1, n2 uint64, k1, k2 int) uint64 {
	switch op {
	case pattern.OpConsecutive, pattern.OpSequential:
		return n1 * n2
	case pattern.OpChoice:
		k := k1
		if k2 < k1 {
			k = k2
		}
		return n1 * n2 * uint64(k)
	case pattern.OpParallel:
		return n1 * n2 * uint64(k1+k2)
	default:
		return 0
	}
}

// nodeTally is a node's counters as plain integers: what one goroutine's
// instances add to the node, folded into the atomic counters once per chunk
// instead of a handful of atomic adds per step per instance.
type nodeTally struct {
	evals, memoHits, leftInputs, rightInputs, comparisons, outputs, predicted uint64
}

// recordOp accumulates one operator application over one instance.
func (t *nodeTally) recordOp(nm *NodeMetrics, n1, n2, comparisons, outputs uint64) {
	t.evals++
	t.leftInputs += n1
	t.rightInputs += n2
	t.comparisons += comparisons
	t.outputs += outputs
	t.predicted += predictedBound(nm.op, n1, n2, nm.k1, nm.k2)
}

// recordAtom accumulates one atomic lookup over one instance: candidates is
// the number of index positions examined (the linear materialization work,
// which is also the predicted bound for an atom), outputs the matches kept
// after guards.
func (t *nodeTally) recordAtom(candidates, outputs int) {
	t.evals++
	t.comparisons += uint64(candidates)
	t.outputs += uint64(outputs)
	t.predicted += uint64(candidates)
}

// add folds a tally into the node's counters and clears it.
func (nm *NodeMetrics) add(t *nodeTally) {
	if nm == nil {
		return
	}
	nm.evals.Add(t.evals)
	nm.memoHits.Add(t.memoHits)
	nm.leftInputs.Add(t.leftInputs)
	nm.rightInputs.Add(t.rightInputs)
	nm.comparisons.Add(t.comparisons)
	nm.outputs.Add(t.outputs)
	nm.predicted.Add(t.predicted)
	*t = nodeTally{}
}

// NodeStats is a point-in-time copy of one node's metrics.
type NodeStats struct {
	// Node is the plan node the stats belong to.
	Node pattern.Node
	// Atom reports an atomic node; Op is meaningful only when !Atom.
	Atom bool
	Op   pattern.Op
	// K1, K2 are the Lemma 1 atom counts of the operand patterns.
	K1, K2 int
	// Evals counts instance evaluations; MemoHits those answered from the
	// sub-pattern memo instead (merge strategy only).
	Evals, MemoHits uint64
	// LeftInputs, RightInputs are Σ n1 and Σ n2 across instance evaluations.
	LeftInputs, RightInputs uint64
	// Comparisons is the measured record-level comparison work; Outputs the
	// incidents produced.
	Comparisons, Outputs uint64
	// Predicted is the summed Lemma 1 bound computed from the actual
	// per-instance operand sizes. Under StrategyNaive the measured
	// comparisons never exceed it; merge joins usually do far less work but
	// carry no per-instance guarantee on degenerate (1–2 element) inputs,
	// where a binary-search probe can cost more than the linear bound.
	Predicted uint64
}

// Snapshot returns the per-node stats in pre-order of the metered plan.
func (m *Meter) Snapshot() []NodeStats {
	if m == nil {
		return nil
	}
	out := make([]NodeStats, 0, len(m.order))
	for i, n := range m.order {
		nm := &m.slots[i]
		out = append(out, NodeStats{
			Node:        n,
			Atom:        nm.atom,
			Op:          nm.op,
			K1:          nm.k1,
			K2:          nm.k2,
			Evals:       nm.evals.Load(),
			MemoHits:    nm.memoHits.Load(),
			LeftInputs:  nm.leftInputs.Load(),
			RightInputs: nm.rightInputs.Load(),
			Comparisons: nm.comparisons.Load(),
			Outputs:     nm.outputs.Load(),
			Predicted:   nm.predicted.Load(),
		})
	}
	return out
}

// NodeOps is one plan node's counters as they cross a wire: evals, memo
// hits, Σ n1, Σ n2, comparisons, outputs and predicted, in that order.
type NodeOps [7]uint64

// Ops exports the per-node counters in pre-order of the metered plan, for a
// meter over the same plan elsewhere to add in (AddOps).
func (m *Meter) Ops() []NodeOps {
	if m == nil {
		return nil
	}
	ops := make([]NodeOps, len(m.slots))
	for i := range m.slots {
		nm := &m.slots[i]
		ops[i] = NodeOps{nm.evals.Load(), nm.memoHits.Load(), nm.leftInputs.Load(), nm.rightInputs.Load(),
			nm.comparisons.Load(), nm.outputs.Load(), nm.predicted.Load()}
	}
	return ops
}

// AddOps adds counters Ops exported from a meter over the same plan, and
// reports whether it did: ops with another number of rows than the plan has
// nodes were metered over another plan, and add nothing.
func (m *Meter) AddOps(ops []NodeOps) bool {
	if m == nil || len(ops) != len(m.slots) {
		return false
	}
	for i, o := range ops {
		m.slots[i].add(&nodeTally{o[0], o[1], o[2], o[3], o[4], o[5], o[6]})
	}
	return true
}

// TotalComparisons sums measured comparisons over all operator nodes.
func (m *Meter) TotalComparisons() uint64 {
	var total uint64
	for _, st := range m.Snapshot() {
		if !st.Atom {
			total += st.Comparisons
		}
	}
	return total
}

// opCount tallies the comparison work of one operator application; the ops
// functions increment it and the evaluator folds it into the meter. A nil
// receiver is valid and makes add a no-op, so unmetered evaluation pays
// only a predictable branch per comparison.
//
// Every resilience.CheckInterval comparisons the tally polls done, the
// scan's context, and aborts the join with the context's cause when it is
// done; then it flushes the local count into bs, the shared budget state
// (when non-nil), where the comparison limit is checked. Both may abort by
// panicking (see budget.go). The stride keeps the hot loop free of atomics
// and channel operations.
type opCount struct {
	comparisons uint64
	flushed     uint64 // comparisons at the last check
	bs          *budgetState
	ctx         context.Context
	done        <-chan struct{} // ctx.Done(), nil when ctx is never done
}

func (c *opCount) add(n uint64) {
	if c == nil {
		return
	}
	c.comparisons += n
	if c.comparisons-c.flushed >= resilience.CheckInterval {
		c.check()
	}
}

// check is add's stride: it aborts the join when the scan's context is
// done, and flushes the tally. It is apart from add so that add inlines.
func (c *opCount) check() {
	select {
	case <-c.done:
		panic(budgetAbort{context.Cause(c.ctx)})
	default:
	}
	c.flush()
}

// flush folds the comparisons not yet flushed into the shared budget state
// (a no-op on a nil one). add calls it at the check interval, and the
// evaluator once per operator application under a budget, for the
// remainder.
func (c *opCount) flush() {
	delta := c.comparisons - c.flushed
	c.flushed = c.comparisons
	c.bs.addComparisons(delta)
}
