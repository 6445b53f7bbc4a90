package eval

import (
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/predicate"
)

// Verify reports whether o is an incident of p in the indexed log, checking
// Definition 4 directly: it searches for a decomposition of o's records
// into sub-incidents satisfying the operator conditions. It is independent
// of the evaluation algorithms (no incident sets are computed), which makes
// it a soundness oracle for them in tests; its worst case is exponential in
// o's size, so it is meant for verification, not evaluation.
func (e *Evaluator) Verify(p pattern.Node, o incident.Incident) bool {
	return e.witness(p, o.WID(), o.Seqs(), make([]uint64, pattern.Operators(p)+1))
}

// possibleSizes returns the set of record counts an incident of p can have.
// Atoms contribute 1; ⊙, ≺ and ⊕ sum their operands; ⊗ takes the union of
// its operands' size sets (an incident of a choice is an incident of either
// side, so sizes need not agree).
func possibleSizes(p pattern.Node) map[int]struct{} {
	switch p := p.(type) {
	case *pattern.Atom:
		return map[int]struct{}{1: {}}
	case *pattern.Binary:
		left := possibleSizes(p.Left)
		right := possibleSizes(p.Right)
		out := make(map[int]struct{})
		if p.Op == pattern.OpChoice {
			for s := range left {
				out[s] = struct{}{}
			}
			for s := range right {
				out[s] = struct{}{}
			}
			return out
		}
		for a := range left {
			for b := range right {
				out[a+b] = struct{}{}
			}
		}
		return out
	default:
		return nil
	}
}

// witness is the one Definition 4 search, behind Verify and Bindings: it
// looks for a decomposition of seqs (sorted is-lsn values of instance wid)
// into an incident of p and records it in w, indexed by p's atoms left to
// right (a pattern of k operators has k+1 atoms). On success w[i] is the
// is-lsn the i-th atom matched, 0 for an atom on a choice branch not taken
// (is-lsns start at 1); on failure, and on entry, w is all 0.
func (e *Evaluator) witness(p pattern.Node, wid uint64, seqs []uint64, w []uint64) bool {
	switch p := p.(type) {
	case *pattern.Atom:
		if len(seqs) != 1 {
			return false
		}
		rec, ok := e.src.Record(wid, seqs[0])
		if !ok {
			return false
		}
		match := rec.Activity == p.Activity
		if p.Negated {
			match = !match
		}
		if !match || !predicate.MatchAll(p.Guards, rec) {
			return false
		}
		w[0] = seqs[0]
		return true
	case *pattern.Binary:
		k := pattern.Operators(p.Left) + 1
		wl, wr := w[:k], w[k:]
		switch p.Op {
		case pattern.OpChoice:
			return e.witness(p.Left, wid, seqs, wl) || e.witness(p.Right, wid, seqs, wr)
		case pattern.OpConsecutive, pattern.OpSequential:
			// The ordering constraint (all of o1 before all of o2) forces
			// the split to be prefix/suffix of the sorted seqs; try every
			// cut point with a compatible gap.
			for cut := 1; cut < len(seqs); cut++ {
				gapOK := seqs[cut-1] < seqs[cut]
				if p.Op == pattern.OpConsecutive {
					gapOK = seqs[cut-1]+1 == seqs[cut]
				}
				if gapOK && e.split(p, wid, seqs[:cut], seqs[cut:], wl, wr) {
					return true
				}
			}
			return false
		case pattern.OpParallel:
			// Any subset split can work; enumerate subsets for the left
			// operand, pruned to the sizes its incidents can actually have.
			rightSizes := possibleSizes(p.Right)
			for need := range possibleSizes(p.Left) {
				if need < 1 || need >= len(seqs) {
					continue
				}
				if _, ok := rightSizes[len(seqs)-need]; !ok {
					continue
				}
				if e.parallelSplit(p, wid, seqs, need, nil, 0, wl, wr) {
					return true
				}
			}
			return false
		}
	}
	return false
}

// split tries one division of a binary pattern's records between its
// operands. The left operand may match before the right one fails, so a
// failed split zeroes the left operand's witness again.
func (e *Evaluator) split(p *pattern.Binary, wid uint64, left, right, wl, wr []uint64) bool {
	if e.witness(p.Left, wid, left, wl) && e.witness(p.Right, wid, right, wr) {
		return true
	}
	clear(wl)
	return false
}

// parallelSplit enumerates size-need subsets of seqs (starting at index
// from, with the prefix already chosen), trying each split of seqs into
// (chosen, rest) between p's operands.
func (e *Evaluator) parallelSplit(p *pattern.Binary, wid uint64, seqs []uint64, need int, chosen []uint64, from int, wl, wr []uint64) bool {
	if len(chosen) == need {
		rest := make([]uint64, 0, len(seqs)-need)
		ci := 0
		for _, s := range seqs {
			if ci < len(chosen) && chosen[ci] == s {
				ci++
				continue
			}
			rest = append(rest, s)
		}
		return e.split(p, wid, chosen, rest, wl, wr)
	}
	for i := from; i <= len(seqs)-(need-len(chosen)); i++ {
		if e.parallelSplit(p, wid, seqs, need, append(chosen, seqs[i]), i+1, wl, wr) {
			return true
		}
	}
	return false
}
