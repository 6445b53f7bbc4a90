// Package predicate implements attribute guards on atomic incident patterns.
//
// Guards are an extension beyond the paper's formal language: Section 1
// motivates queries such as "referrals with balance > 5000", but Definition 3
// keeps patterns purely temporal. A Guard restricts which log records an
// atomic pattern may match by inspecting the record's input/output attribute
// maps. The core algebra (internal/core) treats guards as part of the atomic
// pattern's identity and is otherwise unchanged, so every algebraic law of
// Section 4 continues to hold with guards present.
package predicate

import (
	"errors"
	"fmt"
	"strings"

	"wlq/internal/wlog"
)

// Op is a comparison operator in a guard.
type Op int

// Comparison operators. OpDefined tests mere presence of the attribute.
const (
	OpEq Op = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpDefined
)

// String renders the operator in guard syntax.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpDefined:
		return "?"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Side selects which attribute map(s) of a record a guard inspects.
type Side int

// Guard sides. SideAny checks αout first and falls back to αin, matching
// the intuition that an activity's "current" view of an attribute is the
// value it writes, or otherwise the value it reads.
const (
	SideAny Side = iota + 1
	SideIn
	SideOut
)

// String renders the side as a guard-syntax prefix ("" for SideAny).
func (s Side) String() string {
	switch s {
	case SideAny:
		return ""
	case SideIn:
		return "in."
	case SideOut:
		return "out."
	default:
		return fmt.Sprintf("Side(%d).", int(s))
	}
}

// Guard is a single attribute condition attached to an atomic pattern.
type Guard struct {
	Side Side
	Attr string
	Op   Op
	// Value is the comparison operand. Unused when Op is OpDefined.
	Value wlog.Value
}

// Match reports whether the record satisfies the guard. Comparisons against
// missing or incomparable values are false (not errors): a record that does
// not carry the attribute simply fails the guard.
func (g Guard) Match(r wlog.Record) bool {
	return g.MatchValue(Lookup(r, g.Side, g.Attr))
}

// MatchValue is Match given the guard's lookup of a record: the attribute's
// value, and whether the record carries it on the guard's side.
func (g Guard) MatchValue(v wlog.Value, ok bool) bool {
	if g.Op == OpDefined {
		return ok
	}
	if !ok {
		return false
	}
	switch g.Op {
	case OpEq:
		return v.Equal(g.Value)
	case OpNe:
		return !v.Equal(g.Value)
	}
	c, comparable := v.Compare(g.Value)
	if !comparable {
		return false
	}
	switch g.Op {
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// Lookup reads the attribute a guard on the side inspects: αin or αout, and
// for SideAny (or the zero Side) αout first, then αin. ok is false when the
// record does not carry the attribute there.
func Lookup(r wlog.Record, side Side, attr string) (v wlog.Value, ok bool) {
	if side != SideOut {
		v, ok = r.In[attr]
	}
	if side != SideIn {
		if w, found := r.Out[attr]; found {
			return w, true
		}
	}
	return v, ok
}

// String renders the guard in the syntax accepted by Parse.
func (g Guard) String() string {
	if g.Op == OpDefined {
		return g.Side.String() + g.Attr + "?"
	}
	return g.Side.String() + g.Attr + g.Op.String() + g.Value.String()
}

// Equal reports whether two guards are identical conditions.
func (g Guard) Equal(o Guard) bool {
	side := func(s Side) Side {
		if s == 0 {
			return SideAny
		}
		return s
	}
	if side(g.Side) != side(o.Side) || g.Attr != o.Attr || g.Op != o.Op {
		return false
	}
	return g.Op == OpDefined || g.Value.Equal(o.Value)
}

// ErrMalformedGuard is wrapped by all Parse failures.
var ErrMalformedGuard = errors.New("predicate: malformed guard")

// Parse reads a guard in the textual syntax used inside pattern brackets:
//
//	[balance>5000]     attribute "balance" (out, then in) greater than 5000
//	[in.referState=active]
//	[out.amount<=100.5]
//	[hospital!="Public Hospital"]
//	[receipt1?]        attribute "receipt1" is present
//
// Parse receives the bracket contents without the brackets.
func Parse(s string) (Guard, error) {
	g := Guard{Side: SideAny}
	rest := s
	switch {
	case strings.HasPrefix(rest, "in."):
		g.Side = SideIn
		rest = rest[len("in."):]
	case strings.HasPrefix(rest, "out."):
		g.Side = SideOut
		rest = rest[len("out."):]
	}

	// Find the operator: the first of != <= >= = < > ? outside any quotes.
	// Attribute names may not contain operator characters.
	opIdx := strings.IndexAny(rest, "=!<>?")
	if opIdx <= 0 {
		return Guard{}, fmt.Errorf("%w: %q (missing attribute or operator)", ErrMalformedGuard, s)
	}
	g.Attr = strings.TrimSpace(rest[:opIdx])
	if g.Attr == "" {
		return Guard{}, fmt.Errorf("%w: %q (empty attribute)", ErrMalformedGuard, s)
	}

	opPart := rest[opIdx:]
	var rawValue string
	switch {
	case strings.HasPrefix(opPart, "!="):
		g.Op, rawValue = OpNe, opPart[2:]
	case strings.HasPrefix(opPart, "<="):
		g.Op, rawValue = OpLe, opPart[2:]
	case strings.HasPrefix(opPart, ">="):
		g.Op, rawValue = OpGe, opPart[2:]
	case strings.HasPrefix(opPart, "="):
		g.Op, rawValue = OpEq, opPart[1:]
	case strings.HasPrefix(opPart, "<"):
		g.Op, rawValue = OpLt, opPart[1:]
	case strings.HasPrefix(opPart, ">"):
		g.Op, rawValue = OpGt, opPart[1:]
	case opPart == "?":
		g.Op = OpDefined
		return g, nil
	default:
		return Guard{}, fmt.Errorf("%w: %q (unrecognized operator)", ErrMalformedGuard, s)
	}

	rawValue = strings.TrimSpace(rawValue)
	if rawValue == "" {
		return Guard{}, fmt.Errorf("%w: %q (missing comparison value)", ErrMalformedGuard, s)
	}
	v, err := wlog.ParseValue(rawValue)
	if err != nil {
		return Guard{}, fmt.Errorf("%w: %q: %v", ErrMalformedGuard, s, err)
	}
	g.Value = v
	return g, nil
}

// MatchAll reports whether the record satisfies every guard in the slice.
// An empty slice matches everything.
func MatchAll(guards []Guard, r wlog.Record) bool {
	for _, g := range guards {
		if !g.Match(r) {
			return false
		}
	}
	return true
}

// EqualSlices reports whether two guard lists are identical in order and
// content. Guard order matters for pattern identity (it is part of the
// printed form), even though it does not affect matching.
func EqualSlices(a, b []Guard) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
