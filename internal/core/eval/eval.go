package eval

import (
	"context"
	"fmt"
	"slices"

	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/resilience"
	"wlq/internal/wlog"
)

// Strategy selects the operator join implementation.
type Strategy int

// Evaluation strategies.
const (
	// StrategyNaive runs the published Algorithm 1: nested-loop joins with
	// the Lemma 1 complexity.
	StrategyNaive Strategy = iota + 1
	// StrategyMerge exploits the sorted incident-set order with binary
	// search and range pre-checks; results are identical to StrategyNaive.
	StrategyMerge
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategyMerge:
		return "merge"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures an Evaluator.
type Options struct {
	// Strategy selects the join implementation; the zero value means
	// StrategyMerge (the better default; benchmarks opt into naive).
	Strategy Strategy
	// Meter, when non-nil, attributes measured comparison work and the
	// Lemma 1 predicted bounds to the nodes of the evaluated plan. It must
	// be built (NewMeter) over the same pattern tree passed to Eval — nodes
	// are matched by identity. Safe under EvalParallel: counters are atomic.
	Meter *Meter
	// Budget, when non-zero, caps the evaluation's comparison work,
	// produced incidents, wall time and result size; a tripped limit aborts
	// with an error wrapping resilience.ErrBudgetExceeded. Every entry point
	// enforces it; the ones without an error result (Eval, EvalParallel,
	// Exists, Count) panic with that error, so hand a budget to the
	// error-returning forms. See budget.go for the check cadence.
	Budget resilience.Budget
}

// Evaluator computes incident sets incL(p) over an indexed log, per
// Algorithm 2: atomic patterns are answered from the source's posting lists,
// composite patterns by post-order traversal of the pattern tree, instance
// by instance (incidents never span workflow instances). It holds no
// per-query state: every entry point compiles the pattern it is handed into
// a program that lives for that call.
type Evaluator struct {
	src  Source
	opts Options
}

// New creates an Evaluator over a log source: the served
// internal/colstore.Store, or the oracle's *Index.
func New(src Source, opts Options) *Evaluator {
	if opts.Strategy == 0 {
		opts.Strategy = StrategyMerge
	}
	return &Evaluator{src: src, opts: opts}
}

// Eval computes incL(p): every incident of the pattern in the log.
func (e *Evaluator) Eval(p pattern.Node) *incident.Set {
	return must(e.EvalParallelCtx(context.Background(), p, 1, nil))
}

// must is how the entry points without an error result report a failed
// scan: with context.Background() and no Options.Budget that is a panic
// inside one instance's evaluation, re-raised here with its captured stack.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// program is the incident tree of one query (Algorithm 3), built once per
// call: the plan's nodes in the order Algorithm 2's post-order traversal
// evaluates them — children before parent, left before right — so that
// evaluating an instance is one pass over the slice and everything that
// identifies a node (operands, symbol, meter slot, repeated sub-pattern) is
// decided here and not again per instance.
type program []step

// step is one node of a program.
type step struct {
	atom        *pattern.Atom // the leaf; nil on an operator
	op          pattern.Op
	left, right int // an operator's operand steps
	// alias, when not negative, is the first earlier step with the same
	// printed form: this occurrence's subtree is not in the program, and it
	// is answered from that step's value (StrategyMerge only).
	alias int
	// sym is the atom's activity resolved once per query, so the
	// per-instance probe is an integer-keyed posting-list lookup; hasSym is
	// false when the activity never occurs in the log.
	sym    int32
	hasSym bool
	// keys are the atom's guard attributes resolved the same way, one per
	// guard; -1 for a name no record carries.
	keys []int32
	nm   *NodeMetrics // the node's meter slot; nil when unmetered
	// class and need are the counter's view of the step (count.go): how its
	// incidents in one instance are summarised, and which ends of them the
	// steps that consume it read.
	class class
	need  uint8
	// cand is the instances the step's required-atom formula admits
	// (cover.go), under StrategyMerge.
	cand candidates
}

// leaf is the step of an atomic pattern.
func (e *Evaluator) leaf(a *pattern.Atom) step {
	st := step{atom: a, alias: -1}
	if e.src != nil { // nil when Counted only classifies the plan
		st.sym, st.hasSym = e.src.ResolveActivity(a.Activity)
		for _, g := range a.Guards {
			key, ok := e.src.ResolveAttr(g.Attr)
			if !ok {
				key = -1
			}
			st.keys = append(st.keys, key)
		}
	}
	return st
}

// compile numbers the plan. Under StrategyMerge, structurally repeated
// sub-patterns — common after Theorem 5 rewrites, or in queries like
// (A -> B) | (A -> C) where the atom A recurs — become aliases of their
// first occurrence; printing is injective on the AST (see the parser
// round-trip tests), so the printed form decides equality. StrategyNaive
// stays verbatim Algorithm 1: no sharing, so the Lemma 1 benchmarks measure
// the published join work.
func (e *Evaluator) compile(p pattern.Node) program {
	var (
		prog program
		seen map[string]int // printed form -> step
		pre  int            // pre-order position: the meter's slot order
	)
	if e.opts.Strategy != StrategyNaive {
		seen = make(map[string]int)
	}
	var emit func(n pattern.Node) int
	emit = func(n pattern.Node) int {
		nm := e.opts.Meter.slot(pre, n)
		var key string
		if seen != nil {
			key = n.String()
			if first, ok := seen[key]; ok {
				pre += pattern.Size(n)
				prog = append(prog, step{alias: first, nm: nm})
				return len(prog) - 1
			}
		}
		pre++
		var st step
		switch n := n.(type) {
		case *pattern.Atom:
			st = e.leaf(n)
		case *pattern.Binary:
			st = step{op: n.Op, alias: -1, left: emit(n.Left), right: emit(n.Right)}
		default:
			panic(fmt.Sprintf("eval: unknown pattern node %T", n))
		}
		st.nm = nm
		prog = append(prog, st)
		if seen != nil {
			seen[key] = len(prog) - 1
		}
		return len(prog) - 1
	}
	emit(p)
	prog.classify()
	return prog
}

// scratch is what one goroutine of a scan reuses from instance to instance:
// per step, the incidents an enumerated instance leaves there or the summary
// a counted one does (count.go), the buffers behind them, and the meter's
// counters as plain integers, folded into the shared atomic ones once per
// chunk; and the slab the joins carve is-lsn values from.
//
// Everything an enumerated instance writes here is dead once the next
// instance starts, except what scan copies out of the root first: by
// Definition 4 no incident spans two instances. The program is in post-order,
// so an instance writes each step before a later step reads it, and every
// buffer is refilled from its start — which also holds after an instance
// whose evaluation panicked halfway.
type scratch struct {
	prog  program
	steps []stepScratch
	seqs  incident.Slab // reset as each enumerated instance starts
	// ctx is the scan's, which every join polls (opCount); done is its
	// Done(), nil when it is never done.
	ctx  context.Context
	done <-chan struct{}
}

type stepScratch struct {
	// incs is the step's incidents in an enumerated instance: the step's own
	// buffer for an atom or an operator, its first occurrence's for an alias.
	incs []incident.Incident
	// val is the step's summary in a counted instance.
	val   summary
	pos   []uint64 // an atom's complement or guarded matches; backs val.pos for a union
	spans []span   // backs val.spans
	// left and right are the operand summaries as span lists where they are
	// not kept that way (positions; a repeated sub-pattern's richer spans);
	// sums the running totals the join weighs one side by.
	left, right []span
	sums        []uint64
	tally       nodeTally
}

func newScratch(ctx context.Context, prog program) *scratch {
	return &scratch{prog: prog, steps: make([]stepScratch, len(prog)), ctx: ctx, done: ctx.Done()}
}

// flush adds the tallies to the meter.
func (sc *scratch) flush() {
	for i := range sc.steps {
		sc.prog[i].nm.add(&sc.steps[i].tally)
	}
}

// evalInstance is Algorithm 2 restricted to one workflow instance, the one
// at the position pos of the source, whose posting row every atom reads:
// one pass over the program, each step's
// normalized incidents written into its own buffer in sc. It returns the
// root's, which live in sc and the source's postings until the next instance
// starts.
func (e *Evaluator) evalInstance(sc *scratch, row *Row, wid uint64, pos int, bs *budgetState) []incident.Incident {
	sc.seqs.Reset()
	for i := range sc.prog {
		st, ss := &sc.prog[i], &sc.steps[i]
		switch {
		case st.alias >= 0:
			ss.incs = sc.steps[st.alias].incs
			if st.nm != nil {
				ss.tally.memoHits++
			}
		case st.atom != nil:
			ss.incs = e.evalAtom(st, ss, row, wid, pos)
		default:
			left, right := sc.steps[st.left].incs, sc.steps[st.right].incs
			var cnt *opCount // nil: nothing to tally or poll
			if st.nm != nil || bs != nil || sc.done != nil {
				cnt = &opCount{bs: bs, ctx: sc.ctx, done: sc.done}
			}
			ss.incs = e.applyOp(st.op, ss.incs[:0], left, right, &sc.seqs, cnt)
			if st.nm != nil {
				ss.tally.recordOp(st.nm, uint64(len(left)), uint64(len(right)), cnt.comparisons, uint64(len(ss.incs)))
			}
			// Budget checks come after the tally so an abort's partial cost
			// table includes every completed operator.
			if bs != nil {
				cnt.flush()
				bs.addOutputs(len(ss.incs))
			}
		}
	}
	return sc.steps[len(sc.prog)-1].incs
}

// applyOp dispatches OPERATOR-EVAL to the configured join family, writing
// into out. cnt, when non-nil, tallies the join's record-level comparison
// work.
func (e *Evaluator) applyOp(op pattern.Op, out, left, right []incident.Incident, seqs *incident.Slab, cnt *opCount) []incident.Incident {
	// Empty inputs: only choice can still produce incidents.
	if op != pattern.OpChoice && (len(left) == 0 || len(right) == 0) {
		return out
	}
	naive := e.opts.Strategy == StrategyNaive
	switch op {
	case pattern.OpConsecutive:
		if naive {
			return naiveConsecutive(out, left, right, seqs, cnt)
		}
		return mergeConsecutive(out, left, right, seqs, cnt)
	case pattern.OpSequential:
		if naive {
			return naiveSequential(out, left, right, seqs, cnt)
		}
		return mergeSequential(out, left, right, seqs, cnt)
	case pattern.OpChoice:
		if naive {
			return naiveChoice(out, left, right, cnt)
		}
		return mergeChoice(out, left, right, cnt)
	case pattern.OpParallel:
		if naive {
			return naiveParallel(out, left, right, seqs, cnt)
		}
		return mergeParallel(out, left, right, seqs, cnt)
	default:
		panic(fmt.Sprintf("eval: unknown operator %v", op))
	}
}

// atomSeqs answers an atomic pattern from the instance's posting row as the
// ascending is-lsn list of the instance's matching records: for a positive
// pattern the activity's posting list; for a negated pattern its complement
// within the instance (valid logs have dense is-lsn 1..n, so the complement
// is a linear merge, not a scan of record contents). Guards, when present,
// filter the matching records (extension) — the only case that reads a
// record's attributes, in place (guarded), from the instance at the
// position. candidates is the number of positions the guards were put to.
// The list is the row's own slice, which the evaluator's atom incidents are
// views of, or lives in *buf, which is reused from instance to instance.
func (e *Evaluator) atomSeqs(st *step, row *Row, pos int, buf *[]uint64) (seqs []uint64, candidates int) {
	a := st.atom
	if st.hasSym {
		seqs = row.Postings(st.sym)
	}
	if a.Negated {
		excluded, n := seqs, uint64(row.Len())
		seqs = slices.Grow((*buf)[:0], int(n)-len(excluded))
		j := 0
		for s := uint64(1); s <= n; s++ {
			if j < len(excluded) && excluded[j] == s {
				j++
				continue
			}
			seqs = append(seqs, s)
		}
		*buf = seqs
	}
	candidates = len(seqs)
	if len(a.Guards) > 0 {
		// Filtering a complement in place is safe: the write index never
		// passes the read index (and a buffer that holds it needs no growing).
		kept := slices.Grow((*buf)[:0], len(seqs))
		for _, s := range seqs {
			if e.guarded(st, pos, s) {
				kept = append(kept, s)
			}
		}
		seqs, *buf = kept, kept
	}
	return seqs, candidates
}

// guarded reports whether the record with the given is-lsn of the instance
// at the position satisfies every guard of the step's atom, reading each
// attribute by its key symbol without building the record.
func (e *Evaluator) guarded(st *step, pos int, seq uint64) bool {
	for i, g := range st.atom.Guards {
		var v wlog.Value
		ok := false
		if st.keys[i] >= 0 {
			v, ok = e.src.AttrAt(pos, seq, st.keys[i], g.Side)
		}
		if !g.MatchValue(v, ok) {
			return false
		}
	}
	return true
}

// evalAtom answers an atom as singleton incidents into the step's buffer,
// each a one-element view of atomSeqs' list: the row's posting list, or the
// step's own buffer of matches.
func (e *Evaluator) evalAtom(st *step, ss *stepScratch, row *Row, wid uint64, pos int) []incident.Incident {
	seqs, candidates := e.atomSeqs(st, row, pos, &ss.pos)
	out := ss.incs[:0]
	for k := range seqs {
		out = append(out, incident.Adopt(wid, seqs[k:k+1:k+1]))
	}
	if st.nm != nil {
		ss.tally.recordAtom(candidates, len(out))
	}
	return out
}

// EvalSet computes incL(p) for a pattern over src with default options; a
// convenience for one-shot queries.
func EvalSet(src Source, p pattern.Node) *incident.Set {
	return New(src, Options{}).Eval(p)
}
