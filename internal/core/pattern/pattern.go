// Package pattern implements incident patterns (Definition 3 of "Querying
// Workflow Logs"): the abstract syntax tree, a textual query syntax with a
// shunting-yard parser (as Section 3.2 prescribes), printers, and structural
// metrics used by the evaluator and the optimizer.
//
// The four binary operators and their textual / paper spellings are:
//
//	consecutive  p1 . p2    (paper: p1 ⊙ p2)  p1 then immediately p2
//	sequential   p1 -> p2   (paper: p1 ≺ p2)  p1 then eventually p2
//	choice       p1 | p2    (paper: p1 ⊗ p2)  one of p1, p2
//	parallel     p1 & p2    (paper: p1 ⊕ p2)  both, records disjoint
//
// Atomic patterns are activity names (optionally negated with '!'), and — as
// a documented extension beyond the paper — may carry attribute guards in
// brackets: GetRefer[balance>5000].
package pattern

import (
	"fmt"
	"strings"

	"wlq/internal/predicate"
)

// Op identifies one of the four pattern composition operators.
type Op int

// The operators of Definition 3.
const (
	OpConsecutive Op = iota + 1 // ⊙
	OpSequential                // ≺
	OpChoice                    // ⊗
	OpParallel                  // ⊕
)

// String returns the ASCII spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpConsecutive:
		return "."
	case OpSequential:
		return "->"
	case OpChoice:
		return "|"
	case OpParallel:
		return "&"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Name returns the paper's name for the operator.
func (o Op) Name() string {
	switch o {
	case OpConsecutive:
		return "consecutive"
	case OpSequential:
		return "sequential"
	case OpChoice:
		return "choice"
	case OpParallel:
		return "parallel"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Symbol returns the paper's glyph for the operator.
func (o Op) Symbol() string {
	switch o {
	case OpConsecutive:
		return "⊙"
	case OpSequential:
		return "≺"
	case OpChoice:
		return "⊗"
	case OpParallel:
		return "⊕"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Commutative reports whether the operator is commutative (Theorem 3:
// choice and parallel are; consecutive and sequential are not).
func (o Op) Commutative() bool { return o == OpChoice || o == OpParallel }

// precedence orders the operators for parsing and printing. Consecutive and
// sequential share the highest level (they interchange freely by Theorem 4),
// parallel binds tighter than choice. All operators associate to the left,
// which is harmless because every operator is associative (Theorem 2).
func (o Op) precedence() int {
	switch o {
	case OpConsecutive, OpSequential:
		return 3
	case OpParallel:
		return 2
	case OpChoice:
		return 1
	default:
		return 0
	}
}

// Node is an incident pattern. Implementations are *Atom and *Binary;
// the interface is sealed.
type Node interface {
	// String renders the pattern in the textual syntax accepted by Parse,
	// with the fewest parentheses permitted by precedence.
	String() string
	isPattern()
}

// Compile-time interface checks.
var (
	_ Node = (*Atom)(nil)
	_ Node = (*Binary)(nil)
)

// Atom is an atomic activity pattern: t or ¬t, optionally guarded.
type Atom struct {
	// Activity is the activity name t ∈ T the pattern matches (or excludes).
	Activity string
	// Negated flips the pattern to ¬t: match any record whose activity is
	// not Activity.
	Negated bool
	// Guards further restrict matching records by their attribute maps.
	// This is an extension; the paper's atomic patterns have no guards.
	Guards []predicate.Guard
}

func (*Atom) isPattern() {}

// String renders the atom, e.g. `GetRefer`, `!GetRefer`,
// `GetRefer[balance>5000]`, or a quoted form when the name needs it.
func (a *Atom) String() string {
	var sb strings.Builder
	if a.Negated {
		sb.WriteByte('!')
	}
	if identifierSafe(a.Activity) {
		sb.WriteString(a.Activity)
	} else {
		sb.WriteString(fmt.Sprintf("%q", a.Activity))
	}
	for _, g := range a.Guards {
		sb.WriteByte('[')
		sb.WriteString(g.String())
		sb.WriteByte(']')
	}
	return sb.String()
}

// Binary is a composite pattern p1 op p2.
type Binary struct {
	Op          Op
	Left, Right Node
}

func (*Binary) isPattern() {}

// String renders the composite with minimal parentheses: a child is
// parenthesized only when its top operator binds more loosely than this
// node's, or — on the right-hand side — equally (printing is left-
// associative).
func (b *Binary) String() string {
	return render(b, false)
}

// Pretty renders the pattern using the paper's glyphs (⊙ ≺ ⊗ ⊕ and ¬).
func Pretty(n Node) string {
	return render(n, true)
}

// render produces the infix form; glyphs selects the paper's spellings.
func render(n Node, glyphs bool) string {
	switch n := n.(type) {
	case *Atom:
		s := n.String()
		if glyphs && n.Negated {
			s = "¬" + s[1:]
		}
		return s
	case *Binary:
		opStr := " " + n.Op.String() + " "
		if glyphs {
			opStr = " " + n.Op.Symbol() + " "
		}
		left := render(n.Left, glyphs)
		right := render(n.Right, glyphs)
		if l, ok := n.Left.(*Binary); ok && l.Op.precedence() < n.Op.precedence() {
			left = "(" + left + ")"
		}
		if r, ok := n.Right.(*Binary); ok && r.Op.precedence() <= n.Op.precedence() {
			right = "(" + right + ")"
		}
		return left + opStr + right
	default:
		return fmt.Sprintf("%v", n)
	}
}

// identifierSafe reports whether an activity name can be printed without
// quotes: it must look like an identifier token.
func identifierSafe(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// NewAtom returns the atomic pattern t.
func NewAtom(activity string) *Atom { return &Atom{Activity: activity} }

// NewNegAtom returns the negated atomic pattern ¬t.
func NewNegAtom(activity string) *Atom { return &Atom{Activity: activity, Negated: true} }

// Consecutive returns p1 ⊙ p2.
func Consecutive(l, r Node) *Binary { return &Binary{Op: OpConsecutive, Left: l, Right: r} }

// Sequential returns p1 ≺ p2.
func Sequential(l, r Node) *Binary { return &Binary{Op: OpSequential, Left: l, Right: r} }

// Choice returns p1 ⊗ p2.
func Choice(l, r Node) *Binary { return &Binary{Op: OpChoice, Left: l, Right: r} }

// Parallel returns p1 ⊕ p2.
func Parallel(l, r Node) *Binary { return &Binary{Op: OpParallel, Left: l, Right: r} }

// Combine folds patterns left-associatively under op:
// Combine(op, a, b, c) = (a op b) op c. It panics on an empty argument list.
func Combine(op Op, patterns ...Node) Node {
	if len(patterns) == 0 {
		panic("pattern.Combine: no patterns")
	}
	acc := patterns[0]
	for _, p := range patterns[1:] {
		acc = &Binary{Op: op, Left: acc, Right: p}
	}
	return acc
}

// Clone returns a deep copy of the pattern.
func Clone(n Node) Node {
	switch n := n.(type) {
	case *Atom:
		guards := make([]predicate.Guard, len(n.Guards))
		copy(guards, n.Guards)
		if len(guards) == 0 {
			guards = nil
		}
		return &Atom{Activity: n.Activity, Negated: n.Negated, Guards: guards}
	case *Binary:
		return &Binary{Op: n.Op, Left: Clone(n.Left), Right: Clone(n.Right)}
	default:
		panic(fmt.Sprintf("pattern.Clone: unknown node %T", n))
	}
}

// Equal reports structural equality of two patterns (same shape, operators,
// activities, negation flags and guard lists).
func Equal(a, b Node) bool {
	switch a := a.(type) {
	case *Atom:
		bb, ok := b.(*Atom)
		return ok && a.Activity == bb.Activity && a.Negated == bb.Negated &&
			predicate.EqualSlices(a.Guards, bb.Guards)
	case *Binary:
		bb, ok := b.(*Binary)
		return ok && a.Op == bb.Op && Equal(a.Left, bb.Left) && Equal(a.Right, bb.Right)
	default:
		return false
	}
}

// Walk visits every node of the pattern in depth-first pre-order. If fn
// returns false, the walk stops descending into that subtree.
func Walk(n Node, fn func(Node) bool) {
	if !fn(n) {
		return
	}
	if b, ok := n.(*Binary); ok {
		Walk(b.Left, fn)
		Walk(b.Right, fn)
	}
}

// Size returns the number of AST nodes in the pattern.
func Size(n Node) int {
	count := 0
	Walk(n, func(Node) bool { count++; return true })
	return count
}

// Operators returns k, the number of operator nodes (used by Theorem 1).
func Operators(n Node) int {
	count := 0
	Walk(n, func(m Node) bool {
		if _, ok := m.(*Binary); ok {
			count++
		}
		return true
	})
	return count
}

// Atoms returns the atomic patterns in left-to-right order.
func Atoms(n Node) []*Atom {
	var atoms []*Atom
	Walk(n, func(m Node) bool {
		if a, ok := m.(*Atom); ok {
			atoms = append(atoms, a)
		}
		return true
	})
	return atoms
}
