// Package wlog implements the workflow-log data model of "Querying Workflow
// Logs" (Tang, Mackey, Su): log records (Definition 1), attribute maps over
// the value domain D, logs with the four validity conditions of Definition 2,
// and builders that make it convenient to assemble valid logs.
//
// The package is purely a data model: it knows nothing about patterns or
// query evaluation. Serialization lives in internal/logio; pattern matching
// in internal/core.
package wlog

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value. The paper's value domain D is
// an abstract countably infinite set; we realize it as the disjoint union of
// strings, integers, floats and booleans, plus the distinguished "undefined"
// value ⊥ from Section 2.
type Kind int

// Value kinds. KindUndefined is the paper's ⊥: an attribute that exists in a
// map but carries no defined value.
const (
	KindUndefined Kind = iota + 1
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindUndefined:
		return "undefined"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single element of the value domain D, or ⊥ (undefined).
// The zero Value is ⊥.
//
// Values are small immutable records; they are passed and compared by value.
type Value struct {
	kind Kind
	str  string
	num  int64
	flt  float64
	b    bool
}

// Undefined returns the ⊥ value.
func Undefined() Value { return Value{kind: KindUndefined} }

// String wraps a Go string as a Value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int wraps an int64 as a Value.
func Int(i int64) Value { return Value{kind: KindInt, num: i} }

// Float wraps a float64 as a Value.
func Float(f float64) Value { return Value{kind: KindFloat, flt: f} }

// Bool wraps a bool as a Value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the dynamic kind of v. The zero Value reports KindUndefined.
func (v Value) Kind() Kind {
	if v.kind == 0 {
		return KindUndefined
	}
	return v.kind
}

// IsUndefined reports whether v is ⊥.
func (v Value) IsUndefined() bool { return v.Kind() == KindUndefined }

// Str returns the string payload and whether v is a string.
func (v Value) Str() (string, bool) { return v.str, v.kind == KindString }

// IntVal returns the integer payload and whether v is an int.
func (v Value) IntVal() (int64, bool) { return v.num, v.kind == KindInt }

// FloatVal returns the float payload and whether v is a float.
func (v Value) FloatVal() (float64, bool) { return v.flt, v.kind == KindFloat }

// BoolVal returns the bool payload and whether v is a bool.
func (v Value) BoolVal() (bool, bool) { return v.b, v.kind == KindBool }

// Numeric reports whether v can be read as a number (int or float), and if
// so returns it widened to float64.
func (v Value) Numeric() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.num), true
	case KindFloat:
		return v.flt, true
	default:
		return 0, false
	}
}

// Equal reports whether two values are identical elements of D. Values of
// different kinds are never equal, with one exception: an int and a float
// representing the same real number are equal (so Int(5) == Float(5.0)),
// which keeps round-tripping through text formats from changing semantics.
// A float NaN equals a float NaN, as Compare orders them.
func (v Value) Equal(w Value) bool {
	if v.Kind() == w.Kind() {
		switch v.Kind() {
		case KindUndefined:
			return true
		case KindString:
			return v.str == w.str
		case KindInt:
			return v.num == w.num
		case KindFloat:
			return v.flt == w.flt || math.IsNaN(v.flt) && math.IsNaN(w.flt)
		case KindBool:
			return v.b == w.b
		}
	}
	vn, vok := v.Numeric()
	wn, wok := w.Numeric()
	return vok && wok && vn == wn
}

// Compare orders two values. It returns a negative number, zero, or a
// positive number as v sorts before, equal to, or after w, and false when
// the two values are incomparable (different non-numeric kinds, or either
// side boolean-vs-non-boolean, etc.).
//
// Rules: ⊥ sorts before everything and equals only ⊥; numbers compare
// numerically across int/float; strings compare lexicographically; booleans
// compare with false < true.
func (v Value) Compare(w Value) (int, bool) {
	vk, wk := v.Kind(), w.Kind()
	if vk == KindUndefined || wk == KindUndefined {
		switch {
		case vk == wk:
			return 0, true
		case vk == KindUndefined:
			return -1, true
		default:
			return 1, true
		}
	}
	if vn, ok := v.Numeric(); ok {
		wn, ok := w.Numeric()
		if !ok {
			return 0, false
		}
		switch {
		case vn < wn:
			return -1, true
		case vn > wn:
			return 1, true
		default:
			return 0, true
		}
	}
	if vk != wk {
		return 0, false
	}
	switch vk {
	case KindString:
		return strings.Compare(v.str, w.str), true
	case KindBool:
		switch {
		case v.b == w.b:
			return 0, true
		case !v.b:
			return -1, true
		default:
			return 1, true
		}
	default:
		return 0, false
	}
}

// String renders the value in the textual form accepted by ParseValue.
// Strings that could be mistaken for other literals are quoted.
func (v Value) String() string {
	switch v.Kind() {
	case KindUndefined:
		return "_|_"
	case KindString:
		if needsQuoting(v.str) {
			return strconv.Quote(v.str)
		}
		return v.str
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindFloat:
		return strconv.FormatFloat(v.flt, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.kind))
	}
}

// needsQuoting reports whether a string rendered bare would be re-parsed as
// a different kind of literal or break the k=v syntax of the compact codec.
func needsQuoting(s string) bool {
	if s == "" || s == "_|_" || s == "true" || s == "false" {
		return true
	}
	if mayBeNumber(s) {
		if _, err := strconv.ParseFloat(s, 64); err == nil {
			return true
		}
	}
	for _, r := range s {
		switch r {
		case '"', '=', ',', ';', '\t', '\n', '\r', ' ':
			return true
		}
	}
	return false
}

// ParseValue reads the textual form produced by Value.String: "_|_" for ⊥,
// quoted Go strings, integer and float literals, "true"/"false", and any
// other token as a bare string.
func ParseValue(s string) (Value, error) {
	switch {
	case s == "_|_":
		return Undefined(), nil
	case s == "true":
		return Bool(true), nil
	case s == "false":
		return Bool(false), nil
	}
	if len(s) >= 2 && s[0] == '"' {
		unq, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("wlog: malformed quoted value %q: %w", s, err)
		}
		return String(unq), nil
	}
	if !mayBeNumber(s) {
		return String(s), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f), nil
	}
	return String(s), nil
}

// mayBeNumber reports whether strconv.ParseInt or ParseFloat could read s.
// Both want an optional sign, then a digit, a '.', or the first letter of
// "inf", "infinity" or "nan" in any case. After a digit or a '.', only a hex
// float ("0x…") has letters other than an exponent's 'e': a decimal number
// is digits, '.', '_', 'e' or 'E' and an exponent's sign. A token that fails
// this, such as the hex-like id 1cf1a, is a bare string, found without the
// error value a failed parse allocates.
func mayBeNumber(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case c == 'i', c == 'I', c == 'n', c == 'N':
		return true
	case c != '.' && (c < '0' || c > '9'):
		return false
	case len(s) > 1 && c == '0' && (s[1] == 'x' || s[1] == 'X'):
		return true
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9', c == '.', c == '_', c == 'e', c == 'E', c == '+', c == '-':
		default:
			return false
		}
	}
	return true
}
