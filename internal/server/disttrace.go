package server

import (
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/obs"
)

// nodeStatsFromCostRows reconstructs meter node stats from a wire cost
// table so a fleet-aggregated table can feed the statistics registry the
// same way a local meter flush does. Rows are the pre-order walk of the
// plan (the meter's own order); any shape disagreement — row count or node
// text — returns nil rather than guessing, because mis-attributed counts
// would poison the adaptive cost model.
func nodeStatsFromCostRows(plan pattern.Node, rows []obs.CostRow) []eval.NodeStats {
	if len(rows) == 0 {
		return nil
	}
	var nodes []pattern.Node
	var walk func(n pattern.Node)
	walk = func(n pattern.Node) {
		nodes = append(nodes, n)
		if b, ok := n.(*pattern.Binary); ok {
			walk(b.Left)
			walk(b.Right)
		}
	}
	walk(plan)
	if len(nodes) != len(rows) {
		return nil
	}
	out := make([]eval.NodeStats, 0, len(rows))
	for i, n := range nodes {
		r := rows[i]
		if r.Node != n.String() {
			return nil
		}
		st := eval.NodeStats{
			Node:        n,
			Evals:       r.Evals,
			MemoHits:    r.MemoHits,
			Comparisons: r.Comparisons,
			Outputs:     r.Outputs,
			Predicted:   r.Predicted,
			Pairs:       r.Pairs,
			LeftInputs:  r.N1,
			RightInputs: r.N2,
			K1:          r.K1,
			K2:          r.K2,
		}
		if b, ok := n.(*pattern.Binary); ok {
			st.Op = b.Op
		} else {
			st.Atom = true
		}
		out = append(out, st)
	}
	return out
}
