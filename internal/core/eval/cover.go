package eval

import (
	"slices"

	"wlq/internal/core/pattern"
)

// Which instances a scan evaluates. Definition 4 confines an incident to one
// instance, and every record of an operand's incident is one of the
// incident's, so an instance with an incident of a ⊙ b, a ≺ b or a ⊕ b has
// one of a and one of b, one with an incident of a ⊗ b has one of a or of b,
// and one with an incident of a positive atom has a record carrying its
// activity. A negated atom requires nothing. Read bottom up over the
// program, this required-atom formula names, by the instance postings, a
// superset of the instances with an incident: under StrategyMerge a scan
// evaluates only those, and every other instance it covers has an empty
// share of the answer. StrategyNaive stays Algorithm 1 and evaluates all.

// candidates is a set of instance positions: every one when all is set,
// else pos, ascending.
type candidates struct {
	all bool
	pos []int32
}

// required evaluates the program's required-atom formula over the source:
// a positive atom gives its instance postings (none when its activity is
// absent), a negated one all; ⊙, ≺ and ⊕ intersect their operands' sets and
// ⊗ unions them. Under StrategyNaive it is all.
func (e *Evaluator) required(prog program) candidates {
	if e.opts.Strategy == StrategyNaive {
		return candidates{all: true}
	}
	for i := range prog {
		st := &prog[i]
		switch {
		case st.alias >= 0:
			st.cand = prog[st.alias].cand
		case st.atom != nil:
			if st.atom.Negated {
				st.cand.all = true
			} else if st.hasSym {
				st.cand.pos = e.src.InstancesWith(st.sym)
			}
		case st.op == pattern.OpChoice:
			st.cand = union(prog[st.left].cand, prog[st.right].cand)
		default:
			st.cand = intersect(prog[st.left].cand, prog[st.right].cand)
		}
	}
	return prog[len(prog)-1].cand
}

func union(a, b candidates) candidates {
	switch {
	case a.all || b.all:
		return candidates{all: true}
	case len(a.pos) == 0:
		return b
	case len(b.pos) == 0:
		return a
	}
	out := make([]int32, 0, len(a.pos)+len(b.pos))
	i, j := 0, 0
	for i < len(a.pos) && j < len(b.pos) {
		switch x, y := a.pos[i], b.pos[j]; {
		case x < y:
			out = append(out, x)
			i++
		case x > y:
			out = append(out, y)
			j++
		default:
			out = append(out, x)
			i++
			j++
		}
	}
	out = append(out, a.pos[i:]...)
	return candidates{pos: append(out, b.pos[j:]...)}
}

func intersect(a, b candidates) candidates {
	switch {
	case a.all:
		return b
	case b.all:
		return a
	case len(a.pos) == 0 || len(b.pos) == 0:
		return candidates{}
	}
	out := make([]int32, 0, min(len(a.pos), len(b.pos)))
	for i, j := 0, 0; i < len(a.pos) && j < len(b.pos); {
		switch x, y := a.pos[i], b.pos[j]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			out = append(out, x)
			i++
			j++
		}
	}
	return candidates{pos: out}
}

// Candidates returns how many of the source's instances a scan of the plan
// under the strategy evaluates: those its required-atom formula admits
// under StrategyMerge, every one under StrategyNaive. It is what
// /v1/explain reports.
func Candidates(src Source, p pattern.Node, strategy Strategy) int {
	e := New(src, Options{Strategy: strategy})
	c := e.required(e.compile(p))
	if c.all {
		return len(src.WIDs())
	}
	return len(c.pos)
}

// cover is what a scan of a wid list of the given size evaluates: n items,
// the j-th the instance wids[i] at position pos of the source (item). The
// instances between items are covered unevaluated.
//
//   - at, when set, holds the items' positions; otherwise item j lies at
//     base+j.
//   - idx, when set, holds the items' indices in wids; otherwise wids is the
//     run of the source's list from position base, and an item's index is
//     its position less base.
type cover struct {
	n, size int
	base    int
	at, idx []int32
}

// cover resolves each instance of wids to its position once, and keeps
// those the program's candidates admit. When wids is a run of the source's
// own list (the server's whole list, a worker's owned interval) a position
// is an offset and needs no lookup; any other list (the monitor's touched
// instances) takes one Position per instance, and an absent wid, which has
// no record, is covered unevaluated.
func (e *Evaluator) cover(prog program, wids []uint64) cover {
	if len(wids) == 0 {
		return cover{}
	}
	cand := e.required(prog)
	all := e.src.WIDs()
	if base, ok := e.src.Position(wids[0]); ok && base+len(wids) <= len(all) && &all[base] == &wids[0] {
		if cand.all {
			return cover{n: len(wids), size: len(wids), base: base}
		}
		lo, _ := slices.BinarySearch(cand.pos, int32(base))
		hi, _ := slices.BinarySearch(cand.pos, int32(base+len(wids)))
		return cover{n: hi - lo, size: len(wids), base: base, at: cand.pos[lo:hi]}
	}
	c := cover{size: len(wids), at: []int32{}, idx: []int32{}}
	for i, wid := range wids {
		pos, ok := e.src.Position(wid)
		if !ok {
			continue
		}
		if _, in := slices.BinarySearch(cand.pos, int32(pos)); cand.all || in {
			c.at = append(c.at, int32(pos))
			c.idx = append(c.idx, int32(i))
		}
	}
	c.n = len(c.at)
	return c
}

// item returns the index in wids and the position of the j-th item.
func (c cover) item(j int) (i, pos int) {
	pos = c.base + j
	if c.at != nil {
		pos = int(c.at[j])
	}
	i = pos - c.base
	if c.idx != nil {
		i = int(c.idx[j])
	}
	return i, pos
}

// bound is the index in wids where the instances covered from item j on
// begin: items j-1 and before cover everything below it.
func (c cover) bound(j int) int {
	if j == c.n {
		return c.size
	}
	i, _ := c.item(j)
	return i
}
