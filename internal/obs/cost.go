package obs

import (
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
)

// CostRow is one plan node's measured-vs-predicted accounting, the
// column-for-column realization of Lemma 1:
//
//	n1, n2  operand incident-set sizes, summed over instance evaluations
//	k1, k2  atom counts of the operand patterns
//	bound   the Lemma 1 formula the node is charged under
//
// For operator rows, Predicted is the bound evaluated with the actual
// per-instance n1/n2; for atom rows it is the linear index-materialization
// work. Under the naive strategy Comparisons ≤ Predicted always holds.
type CostRow struct {
	// Node is the sub-pattern in query syntax; Depth its tree depth (0 =
	// plan root), for indented rendering.
	Node  string `json:"node"`
	Depth int    `json:"depth"`
	// Op is the operator name ("consecutive", "sequential", "choice",
	// "parallel") or "atom"; Symbol the paper's glyph for operators.
	Op     string `json:"op"`
	Symbol string `json:"symbol,omitempty"`
	// K1, K2 are Lemma 1's k1, k2 (0 for atom rows).
	K1 int `json:"k1"`
	K2 int `json:"k2"`
	// N1, N2 are Σ n1 and Σ n2 across instance evaluations.
	N1 uint64 `json:"n1"`
	N2 uint64 `json:"n2"`
	// Comparisons is the measured record-level comparison work; Outputs the
	// incidents the node produced.
	Comparisons uint64 `json:"comparisons"`
	Outputs     uint64 `json:"outputs"`
	// Predicted is the summed Lemma 1 bound; Bound its formula.
	Predicted uint64 `json:"predicted"`
	Bound     string `json:"bound"`
	// Evals counts instance evaluations; MemoHits those answered from the
	// repeated-sub-pattern memo without join work.
	Evals    uint64 `json:"evals"`
	MemoHits uint64 `json:"memo_hits,omitempty"`
	// Selectivity is the output-cardinality fraction the cost model charged
	// this node with. Present on selective rows only: ⊙/≺/⊕ operators and
	// guarded atoms — choice has no selectivity constant, unguarded atoms no
	// guard factor.
	Selectivity float64 `json:"selectivity,omitempty"`
}

// boundFormula names the Lemma 1 bound an operator is charged under.
func boundFormula(op pattern.Op) string {
	switch op {
	case pattern.OpConsecutive, pattern.OpSequential:
		return "n1·n2"
	case pattern.OpChoice:
		return "n1·n2·min(k1,k2)"
	case pattern.OpParallel:
		return "n1·n2·(k1+k2)"
	default:
		return ""
	}
}

// CostTable assembles the measured-vs-predicted table for a metered plan,
// rows in pre-order of the plan tree (the order Meter.Snapshot reports, from
// which each row's depth follows), with selectivity columns from the cost
// model's constants.
func CostTable(m *eval.Meter) []CostRow {
	sel := rewrite.ModelSelectivities()
	stats := m.Snapshot()
	rows := make([]CostRow, 0, len(stats))
	depths := []int{0} // depths of the subtrees still to come, nearest last
	for _, st := range stats {
		depth := depths[len(depths)-1]
		depths = depths[:len(depths)-1]
		row := CostRow{
			Node:        st.Node.String(),
			Depth:       depth,
			Evals:       st.Evals,
			MemoHits:    st.MemoHits,
			Comparisons: st.Comparisons,
			Outputs:     st.Outputs,
			Predicted:   st.Predicted,
		}
		if st.Atom {
			row.Op = "atom"
			row.Bound = "n (index scan)"
			if a, ok := st.Node.(*pattern.Atom); ok && len(a.Guards) > 0 {
				row.Selectivity = sel.Guard
			}
		} else {
			depths = append(depths, depth+1, depth+1)
			row.Op = st.Op.Name()
			row.Symbol = st.Op.Symbol()
			row.K1, row.K2 = st.K1, st.K2
			row.N1, row.N2 = st.LeftInputs, st.RightInputs
			row.Bound = boundFormula(st.Op)
			row.Selectivity = sel.ForOp(st.Op)
		}
		rows = append(rows, row)
	}
	return rows
}

// RewriteSpans annotates sp with the optimizer trace: input/output forms
// and cost estimates on the span itself, plus one child span per applied
// Theorem 2–5 law carrying the law's theorem citation and the estimated
// cost bracket of the pass that applied it.
func RewriteSpans(sp *Span, tr rewrite.Trace) {
	if sp == nil {
		return
	}
	sp.SetAttr("input", tr.Input.String())
	sp.SetAttr("output", tr.Output.String())
	sp.SetAttr("changed", tr.Changed())
	sp.SetAttr("cost_before", tr.Before.Cost)
	sp.SetAttr("cost_after", tr.After.Cost)
	sp.SetAttr("card_before", tr.Before.Card)
	sp.SetAttr("card_after", tr.After.Card)
	for _, st := range tr.Details {
		c := sp.StartChild(st.Law)
		c.SetAttr("theorem", st.Theorem)
		c.SetAttr("cost_before", st.Before)
		c.SetAttr("cost_after", st.After)
		c.End()
	}
}

// QueryTrace is the assembled observability record of one traced query:
// the span tree plus the per-operator cost table. It is the wire shape of
// the query service's "trace" response field and the CLI's -trace output.
type QueryTrace struct {
	// Query is the query as written; Plan the pattern actually evaluated
	// (after any rewrite).
	Query string `json:"query"`
	Plan  string `json:"plan"`
	// Strategy is the join family that produced the measurements.
	Strategy string `json:"strategy"`
	// TraceID is the cross-process trace id (set on distributed traces, and
	// stamped on every worker subtree of them).
	TraceID string `json:"trace_id,omitempty"`
	// Spans is the root of the span tree.
	Spans *Span `json:"spans"`
	// CostTable is the per-node measured-vs-predicted accounting.
	CostTable []CostRow `json:"cost_table"`
}
