package eval

import (
	"cmp"
	"slices"
	"sort"

	"wlq/internal/core/pattern"
)

// Counting without enumeration. Definition 4 confines an incident to one
// workflow instance and Algorithm 2 answers atoms from sorted is-lsn lists,
// so for most plans |incL(p)| within an instance — and with it "does this
// instance have an incident" — is arithmetic over those lists; no
// incident.Incident is built. compile classifies every step of the program:
//
//   - singleton: an atom (positive, negated or guarded), or ⊗ of singleton
//     operands. Every incident is one record, so the incident set IS a
//     sorted position list: the posting list, its complement, a merge-union.
//   - summarised: ⊙ or ≺ over countable operands of any depth, or ⊕ over
//     two singleton operands. Every sub-pattern below such a step has one
//     fixed incident size, which makes (o1, o2) ↦ o1 ∪ o2 injective for ⊙
//     and ≺ — o1 is the k1 smallest records of the union — so the step's
//     incidents are exactly the qualifying operand pairs, and all a parent
//     can ask of them is their first and last record: the step is a
//     multiset of (first, last) spans.
//   - uncountable: ⊗ or ⊕ over an operand whose incidents hold several
//     records (set intersection and record-disjointness cannot be read off
//     the spans), and anything above one. With operands of mixed incident
//     sizes the decomposition is not unique: on the trace A B C,
//     (A | (A -> B)) -> (C | (B -> C)) has three qualifying pairs and two
//     incidents. Such plans, and every plan under StrategyNaive, are counted
//     by enumerating (scan folds len over evalInstance).
//
// A summarised step keeps only the ends its consumers read (step.need): the
// lasts of a left operand, the firsts of a right one, nothing but the total
// at the root — which keeps a ≺-chain linear in the position lists. Both
// ends are kept only under a step that itself must report the far end of the
// other side, e.g. the (A -> B) of X -> ((A -> B) -> C).

// class is how a step's incidents in one instance are summarised.
type class uint8

const (
	uncountable class = iota
	singleton
	summarised
)

// The ends of a summarised step's incidents a consumer reads.
const (
	needFirst uint8 = 1 << iota
	needLast
)

// classify fills in every step's class (bottom up) and need (top down).
func (prog program) classify() {
	for i := range prog {
		st := &prog[i]
		switch {
		case st.alias >= 0:
			st.class = prog[st.alias].class
		case st.atom != nil:
			st.class = singleton
		default:
			l, r := prog[st.left].class, prog[st.right].class
			ordered := st.op == pattern.OpConsecutive || st.op == pattern.OpSequential
			switch {
			case l == uncountable || r == uncountable:
			case l == singleton && r == singleton && st.op == pattern.OpChoice:
				st.class = singleton
			case ordered || l == singleton && r == singleton:
				st.class = summarised
			}
		}
	}
	for i := len(prog) - 1; i >= 0; i-- {
		st := &prog[i]
		switch {
		case st.alias >= 0:
			// The first occurrence serves every occurrence's consumers.
			prog[st.alias].need |= st.need
		case st.atom == nil && (st.op == pattern.OpConsecutive || st.op == pattern.OpSequential):
			prog[st.left].need |= needLast | st.need&needFirst
			prog[st.right].need |= needFirst | st.need&needLast
		}
	}
}

// counted reports whether an answer of the given shape is computed by the
// counter rather than by enumerating incidents.
func (prog program) counted(shape Shape, strategy Strategy) bool {
	return shape != ShapeIncidents && strategy != StrategyNaive && prog[len(prog)-1].class != uncountable
}

// fromStatistics reports whether a scan of the program over wids is
// answered from the source's statistics, reading no instance: a lone
// unguarded atom, counted, over the source's whole wid list, not stopping
// at the first hit. By Definition 4 each of its records is one incident, so
// its count is ActivityCount (TotalRecords less that when negated) and its
// instances are instance postings. A guard reads attributes, any other
// list (a worker's interval, the monitor's touched wids) has no statistic,
// and neither has an operator's Lemma 1 prediction, so those scan.
func (e *Evaluator) fromStatistics(prog program, wids []uint64, counted, first bool) bool {
	all := e.src.WIDs()
	return prog.statistical(counted) && !first && len(wids) == len(all) && len(all) > 0 && &wids[0] == &all[0]
}

// statistical reports whether the source's statistics answer the program
// over a whole wid list: a lone unguarded atom, counted.
func (prog program) statistical(counted bool) bool {
	return counted && len(prog) == 1 && len(prog[0].atom.Guards) == 0
}

// FromStatistics reports whether a scan of the plan in the given shape over
// a source's whole wid list is answered from the source's statistics,
// reading no instance (fromStatistics) — what the query service calls the
// answer "statistics" on its eval span and in /v1/explain. Over any other
// wid list the plan is scanned, counted (Counted) or not.
func FromStatistics(p pattern.Node, shape Shape, strategy Strategy) bool {
	e := Evaluator{opts: Options{Strategy: strategy}}
	prog := e.compile(p)
	return prog.statistical(prog.counted(shape, strategy))
}

// statistics is the answer of the lone atom st over the source's whole wid
// list (fromStatistics), as the chunk of a one-goroutine scan: its count,
// and under ShapeInstances the instances with a matching record. A
// positive atom's are its instance postings; a negated atom's those with a
// record of another activity, the union of every other activity's. The
// meter is filled as the scan would fill it: an atom's every counter is
// linear, so its evaluations are the candidate instances and its
// comparisons, outputs and prediction the count.
func (e *Evaluator) statistics(st *step, wids []uint64, shape Shape) (c chunk) {
	a := st.atom
	n := e.src.ActivityCount(a.Activity)
	c.instances = len(wids)
	evals := len(wids)
	if !a.Negated {
		var at []int32
		if st.hasSym {
			at = e.src.InstancesWith(st.sym)
		}
		c.incidents, evals = n, len(at)
		if shape == ShapeInstances {
			c.wids = make([]uint64, len(at))
			for k, pos := range at {
				c.wids[k] = wids[pos]
			}
		}
	} else {
		c.incidents = e.src.TotalRecords() - n
		if shape == ShapeInstances {
			hit := make([]uint64, (len(wids)+63)/64) // a bit per position
			for _, name := range e.src.Activities() {
				if sym, _ := e.src.ResolveActivity(name); name != a.Activity {
					for _, pos := range e.src.InstancesWith(sym) {
						hit[pos/64] |= 1 << (pos % 64)
					}
				}
			}
			c.wids = make([]uint64, 0, len(wids))
			for pos, wid := range wids {
				if hit[pos/64]&(1<<(pos%64)) != 0 {
					c.wids = append(c.wids, wid)
				}
			}
		}
	}
	k := uint64(c.incidents)
	st.nm.add(&nodeTally{evals: uint64(evals), comparisons: k, outputs: k, predicted: k})
	return c
}

// Counted reports whether the evaluator answers the plan in the given shape
// without building an incident (see the classification above) — what the
// query service puts on its eval span and in /v1/explain.
func Counted(p pattern.Node, shape Shape, strategy Strategy) bool {
	e := Evaluator{opts: Options{Strategy: strategy}}
	return e.compile(p).counted(shape, strategy)
}

// span stands for the n incidents of a summarised step, within one instance,
// whose first and last records are these. An end no consumer reads is 0.
type span struct {
	first, last uint64
	n           uint64
}

// summary is a countable step's incidents within one instance.
type summary struct {
	// n is how many there are.
	n uint64
	// pos, for a singleton step, is their positions, ascending.
	pos []uint64
	// spans, for a summarised step that has consumers, is the incidents by
	// their ends: sorted by (first, last), equal ends merged. has says which
	// ends are kept — the step's need, which for a repeated sub-pattern can
	// be more than the consumer at hand reads.
	spans []span
	has   uint8
}

// countInstance is evalInstance for a countable program: one pass over the
// steps, each left as a summary instead of a slice of incidents. It returns
// the number of incidents of the plan in the instance. Summary joins tally
// their probes and pair tests like the enumerating joins do, and poll the
// scan's context at the same stride, so the comparison budget, the
// wall-time budget and the caller's deadline bound a pathological count;
// there is no produced incident for the outputs and result-size budgets to
// bound.
func (e *Evaluator) countInstance(c *scratch, row *Row, pos int, bs *budgetState) int {
	for i := range c.prog {
		st, sc := &c.prog[i], &c.steps[i]
		switch {
		case st.alias >= 0:
			sc.val = c.steps[st.alias].val
			if st.nm != nil {
				sc.tally.memoHits++
			}
		case st.atom != nil:
			seqs, candidates := e.atomSeqs(st, row, pos, &sc.pos)
			sc.val.n, sc.val.pos = uint64(len(seqs)), seqs
			if st.nm != nil {
				sc.tally.recordAtom(candidates, len(seqs))
			}
		default:
			l, r := &c.steps[st.left].val, &c.steps[st.right].val
			cnt := opCount{bs: bs, ctx: c.ctx, done: c.done}
			c.apply(i, l, r, &cnt)
			if st.nm != nil {
				sc.tally.recordOp(st.nm, l.n, r.n, cnt.comparisons, sc.val.n)
			}
			if bs != nil {
				cnt.flush()
			}
		}
	}
	return int(c.steps[len(c.prog)-1].val.n)
}

// apply counts one operator step from its operands' summaries into the
// step's own (field by field: a summary is eight words, and this runs per
// step per instance).
func (c *scratch) apply(i int, l, r *summary, cnt *opCount) {
	st, sc := &c.prog[i], &c.steps[i]
	v := &sc.val
	v.n = 0
	// Empty inputs: only choice can still produce incidents.
	if st.op != pattern.OpChoice && (l.n == 0 || r.n == 0) {
		v.pos, v.spans = nil, nil
		return
	}
	atomic := c.prog[st.left].class == singleton && c.prog[st.right].class == singleton
	switch {
	case st.op == pattern.OpChoice:
		sc.pos = unionSeqs(sc.pos[:0], l.pos, r.pos, cnt)
		v.n, v.pos = uint64(len(sc.pos)), sc.pos
		return
	case atomic && st.need == 0:
		v.n = countAtomicPair(st.op, l.pos, r.pos, cnt)
		return
	case st.op == pattern.OpParallel:
		sc.spans = parallelSpans(sc.spans[:0], l.pos, r.pos, st.need, cnt)
	default:
		sc.spans = c.orderedSpans(sc, st, l, r, cnt)
	}
	sc.spans = normalizeSpans(sc.spans)
	v.spans, v.has = sc.spans, st.need
	for _, s := range sc.spans {
		v.n += s.n
	}
}

// orderedSpans joins the operands of a ⊙ or ≺ step: every pair (o1, o2) with
// last(o1)+1 = first(o2), respectively last(o1) < first(o2), is one incident
// with o1's first and o2's last. Only where the step must report both ends is
// that a loop over the pairs; otherwise one side is weighed against running
// totals of the other, found by binary search. The result is not normalized;
// with nothing to report (need 0) it is one span holding the total.
func (c *scratch) orderedSpans(sc *stepScratch, st *step, l, r *summary, cnt *opCount) []span {
	left, right, out := asSpans(l, &sc.left), asSpans(r, &sc.right), sc.spans[:0]
	switch {
	case st.need&needLast == 0:
		// Count, or firsts: each left incident stands for as many incidents as
		// right incidents follow it. right is sorted by first.
		sums := suffixSums(&sc.sums, right)
		var total uint64
		for _, o1 := range left {
			lo, hi := following(right, o1.last, st.op, cnt)
			w := o1.n * (sums[lo] - sums[hi])
			if w == 0 {
				continue
			}
			if st.need == 0 {
				total += w
			} else {
				out = append(out, span{first: o1.first, n: w})
			}
		}
		if total > 0 {
			out = append(out, span{n: total})
		}
	case st.need == needLast:
		// Lasts: the mirror image, each right incident weighed by the left
		// incidents it follows. That needs left sorted by last, which spans
		// kept with their firsts too (a repeated sub-pattern) are not.
		if l.has&needFirst != 0 {
			left = lastsOnly(&sc.left, left)
		}
		sums := suffixSums(&sc.sums, left)
		for _, o2 := range right {
			lo, hi := preceding(left, o2.first, st.op, cnt)
			if w := o2.n * (sums[lo] - sums[hi]); w > 0 {
				out = append(out, span{last: o2.last, n: w})
			}
		}
	default:
		for _, o1 := range left {
			lo, hi := following(right, o1.last, st.op, cnt)
			for _, o2 := range right[lo:hi] {
				cnt.add(1)
				out = append(out, span{first: o1.first, last: o2.last, n: o1.n * o2.n})
			}
		}
	}
	return out
}

// asSpans returns a summary's incidents as spans: a singleton step's
// positions are written out into *buf.
func asSpans(v *summary, buf *[]span) []span {
	if v.pos == nil {
		return v.spans
	}
	out := (*buf)[:0]
	for _, p := range v.pos {
		out = append(out, span{first: p, last: p, n: 1})
	}
	*buf = out
	return out
}

// lastsOnly projects spans onto their last records, into *buf.
func lastsOnly(buf *[]span, spans []span) []span {
	out := (*buf)[:0]
	for _, s := range spans {
		out = append(out, span{last: s.last, n: s.n})
	}
	out = normalizeSpans(out)
	*buf = out
	return out
}

// suffixSums fills *buf with sums[i] = Σ spans[i:].n (and sums[len] = 0).
func suffixSums(buf *[]uint64, spans []span) []uint64 {
	sums := slices.Grow((*buf)[:0], len(spans)+1)[:len(spans)+1]
	sums[len(spans)] = 0
	for i := len(spans) - 1; i >= 0; i-- {
		sums[i] = sums[i+1] + spans[i].n
	}
	*buf = sums
	return sums
}

// following returns the range of right (sorted by first) an incident ending
// at last joins with under op.
func following(right []span, last uint64, op pattern.Op, cnt *opCount) (lo, hi int) {
	lo = sort.Search(len(right), func(i int) bool { cnt.add(1); return right[i].first > last })
	if op == pattern.OpSequential {
		return lo, len(right)
	}
	for hi = lo; hi < len(right) && right[hi].first == last+1; hi++ {
		cnt.add(1)
	}
	return lo, hi
}

// preceding returns the range of left (sorted by last) an incident starting
// at first joins with under op.
func preceding(left []span, first uint64, op pattern.Op, cnt *opCount) (lo, hi int) {
	hi = sort.Search(len(left), func(i int) bool { cnt.add(1); return left[i].last >= first })
	if op == pattern.OpSequential {
		return 0, hi
	}
	for lo = hi; lo > 0 && left[lo-1].last+1 == first; lo-- {
		cnt.add(1)
	}
	return lo, hi
}

// normalizeSpans sorts spans by (first, last) and merges equal ends.
func normalizeSpans(spans []span) []span {
	order := func(a, b span) int {
		if c := cmp.Compare(a.first, b.first); c != 0 {
			return c
		}
		return cmp.Compare(a.last, b.last)
	}
	increasing := true // a join over position lists emits in order
	for i := 1; i < len(spans) && increasing; i++ {
		increasing = order(spans[i-1], spans[i]) < 0
	}
	if increasing {
		return spans
	}
	slices.SortFunc(spans, order)
	out := spans[:1]
	for _, s := range spans[1:] {
		if top := &out[len(out)-1]; order(*top, s) == 0 {
			top.n += s.n
		} else {
			out = append(out, s)
		}
	}
	return out
}

// parallelSpans is ⊕ over two position lists: the unordered pairs {x, y},
// x ≠ y, x matching the left atom and y the right, by the ends need asks
// for. A pair of records that each match both atoms arises from (x, y) and
// from (y, x); only the ascending one is emitted.
func parallelSpans(out []span, s1, s2 []uint64, need uint8, cnt *opCount) []span {
	for _, x := range s1 {
		_, xBoth := slices.BinarySearch(s2, x)
		for _, y := range s2 {
			cnt.add(1)
			if x == y {
				continue
			}
			if x > y && xBoth {
				if _, yBoth := slices.BinarySearch(s1, y); yBoth {
					continue
				}
			}
			s := span{n: 1}
			if need&needFirst != 0 {
				s.first = min(x, y)
			}
			if need&needLast != 0 {
				s.last = max(x, y)
			}
			out = append(out, s)
		}
	}
	return out
}

// countAtomicPair computes |incL(a1 op a2)| within one instance from the
// two singleton operands' position lists.
func countAtomicPair(op pattern.Op, s1, s2 []uint64, cnt *opCount) uint64 {
	switch op {
	case pattern.OpConsecutive:
		// Pairs with s+1 present in s2.
		var count uint64
		for _, s := range s1 {
			i := sort.Search(len(s2), func(i int) bool { cnt.add(1); return s2[i] >= s+1 })
			if i < len(s2) && s2[i] == s+1 {
				count++
			}
		}
		return count
	case pattern.OpSequential:
		// Σ over s1 of |{s2 > s}|.
		var count uint64
		for _, s := range s1 {
			i := sort.Search(len(s2), func(i int) bool { cnt.add(1); return s2[i] > s })
			count += uint64(len(s2) - i)
		}
		return count
	default:
		// ⊕ (⊗ over singletons is a union, not a pair count): unordered
		// pairs {x, y}, x ≠ y, x matching a1 and y matching a2.
		// Ordered qualifying pairs: n1·n2 minus the |I| same-record pairs
		// (I = positions matching both atoms). Each unordered pair with
		// BOTH elements in I arises from two ordered pairs; subtract the
		// C(|I|, 2) duplicates.
		inter := intersectLen(s1, s2, cnt)
		return uint64(len(s1))*uint64(len(s2)) - inter - inter*(inter-1)/2
	}
}

// intersectLen counts the positions two sorted lists share.
func intersectLen(a, b []uint64, cnt *opCount) uint64 {
	var n uint64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		cnt.add(1)
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

// unionSeqs appends the union of two sorted position lists to dst: ⊗ over
// singleton operands.
func unionSeqs(dst, a, b []uint64, cnt *opCount) []uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		cnt.add(1)
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
