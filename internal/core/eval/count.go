package eval

import (
	"context"
	"sort"

	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/predicate"
)

// Counting without materialization. |incL(p)| for a pattern whose operands
// are atomic can be computed arithmetically from the per-activity position
// lists, never building a single union — O(n log n) instead of O(output).
// Count uses this fast path when it applies and falls back to full
// evaluation otherwise; the two are cross-checked by property tests.

// Count returns |incL(p)|.
func (e *Evaluator) Count(p pattern.Node) int {
	return must(e.CountCtx(context.Background(), p))
}

// CountCtx is Count under ctx, Options.Budget and panic isolation, all three
// through scan on the evaluating fallback. The arithmetic fast path produces
// no incident and tallies no comparison for a budget to bound (O(n log n)
// work per instance), so it checks ctx and, of the budget, wall time — once
// per instance, as scan does.
func (e *Evaluator) CountCtx(ctx context.Context, p pattern.Node) (int, error) {
	if b, ok := p.(*pattern.Binary); ok {
		la, lok := b.Left.(*pattern.Atom)
		ra, rok := b.Right.(*pattern.Atom)
		if lok && rok {
			l, r := e.leaf(la), e.leaf(ra)
			bs := newBudgetState(e.opts.Budget)
			total := 0
			for _, wid := range e.src.WIDs() {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				if err := bs.wallTimeErr(); err != nil {
					return 0, err
				}
				total += countAtomicPair(b.Op, e.atomSeqs(&l, wid), e.atomSeqs(&r, wid))
			}
			return total, nil
		}
	}
	total := 0 // one goroutine: the visitor needs no synchronisation
	err := e.scan(ctx, p, e.src.WIDs(), 1, nil, func(_ int, incs []incident.Incident) bool {
		total += len(incs)
		return true
	})
	return total, err
}

// atomSeqs returns the sorted is-lsn list matching the atom in the
// instance (guards applied).
func (e *Evaluator) atomSeqs(st *step, wid uint64) []uint64 {
	a := st.atom
	if !a.Negated && len(a.Guards) == 0 {
		return e.postings(st, wid)
	}
	var out []uint64
	for _, rec := range e.src.Instance(wid) {
		match := rec.Activity == a.Activity
		if a.Negated {
			match = !match
		}
		if match && predicate.MatchAll(a.Guards, rec) {
			out = append(out, rec.Seq)
		}
	}
	return out
}

// countAtomicPair computes |incL(a1 op a2)| within one instance from the
// two atoms' position lists.
func countAtomicPair(op pattern.Op, s1, s2 []uint64) int {
	switch op {
	case pattern.OpConsecutive:
		// Pairs with s+1 present in s2.
		count := 0
		for _, s := range s1 {
			i := sort.Search(len(s2), func(i int) bool { return s2[i] >= s+1 })
			if i < len(s2) && s2[i] == s+1 {
				count++
			}
		}
		return count
	case pattern.OpSequential:
		// Σ over s1 of |{s2 > s}|.
		count := 0
		for _, s := range s1 {
			i := sort.Search(len(s2), func(i int) bool { return s2[i] > s })
			count += len(s2) - i
		}
		return count
	case pattern.OpChoice:
		// |S1 ∪ S2| over singletons: union of the position sets.
		return len(s1) + len(s2) - intersectLen(s1, s2)
	case pattern.OpParallel:
		// Unordered pairs {x, y}, x ≠ y, x matching a1 and y matching a2.
		// Ordered qualifying pairs: n1·n2 minus the |I| same-record pairs
		// (I = positions matching both atoms). Each unordered pair with
		// BOTH elements in I arises from two ordered pairs; subtract the
		// C(|I|, 2) duplicates.
		inter := intersectLen(s1, s2)
		ordered := len(s1)*len(s2) - inter
		return ordered - inter*(inter-1)/2
	default:
		return 0
	}
}

// intersectLen counts the positions two sorted lists share.
func intersectLen(a, b []uint64) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
