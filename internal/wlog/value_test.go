package wlog

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		want Kind
	}{
		{"zero value is undefined", Value{}, KindUndefined},
		{"explicit undefined", Undefined(), KindUndefined},
		{"string", String("x"), KindString},
		{"empty string is still a string", String(""), KindString},
		{"int", Int(7), KindInt},
		{"float", Float(2.5), KindFloat},
		{"bool", Bool(true), KindBool},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Kind(); got != tt.want {
				t.Errorf("Kind() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestValueAccessors(t *testing.T) {
	if s, ok := String("hi").Str(); !ok || s != "hi" {
		t.Errorf("Str() = %q, %v", s, ok)
	}
	if _, ok := Int(1).Str(); ok {
		t.Error("Str() on int should report false")
	}
	if i, ok := Int(-3).IntVal(); !ok || i != -3 {
		t.Errorf("IntVal() = %d, %v", i, ok)
	}
	if f, ok := Float(1.5).FloatVal(); !ok || f != 1.5 {
		t.Errorf("FloatVal() = %g, %v", f, ok)
	}
	if b, ok := Bool(true).BoolVal(); !ok || !b {
		t.Errorf("BoolVal() = %v, %v", b, ok)
	}
	if !Undefined().IsUndefined() {
		t.Error("Undefined().IsUndefined() = false")
	}
}

func TestValueNumeric(t *testing.T) {
	tests := []struct {
		name   string
		v      Value
		want   float64
		wantOK bool
	}{
		{"int widens", Int(4), 4, true},
		{"float passes", Float(0.25), 0.25, true},
		{"string is not numeric", String("4"), 0, false},
		{"bool is not numeric", Bool(false), 0, false},
		{"undefined is not numeric", Undefined(), 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := tt.v.Numeric()
			if ok != tt.wantOK || got != tt.want {
				t.Errorf("Numeric() = %g, %v; want %g, %v", got, ok, tt.want, tt.wantOK)
			}
		})
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"same strings", String("a"), String("a"), true},
		{"different strings", String("a"), String("b"), false},
		{"same ints", Int(5), Int(5), true},
		{"int vs equal float", Int(5), Float(5), true},
		{"float vs equal int", Float(5), Int(5), true},
		{"int vs unequal float", Int(5), Float(5.5), false},
		{"string five vs int five", String("5"), Int(5), false},
		{"undefined vs undefined", Undefined(), Undefined(), true},
		{"undefined vs zero int", Undefined(), Int(0), false},
		{"bools", Bool(true), Bool(true), true},
		{"bool vs int", Bool(true), Int(1), false},
		{"NaN vs NaN", Float(math.NaN()), Float(math.NaN()), true},
		{"NaN vs float", Float(math.NaN()), Float(0), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
			if got := tt.b.Equal(tt.a); got != tt.want {
				t.Errorf("Equal not symmetric: reversed = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		name   string
		a, b   Value
		want   int
		wantOK bool
	}{
		{"ints", Int(1), Int(2), -1, true},
		{"int float cross", Int(3), Float(2.5), 1, true},
		{"equal cross", Float(2), Int(2), 0, true},
		{"strings", String("a"), String("b"), -1, true},
		{"string vs int incomparable", String("a"), Int(1), 0, false},
		{"bools", Bool(false), Bool(true), -1, true},
		{"bool vs string incomparable", Bool(true), String("true"), 0, false},
		{"undefined below all", Undefined(), Int(-100), -1, true},
		{"all above undefined", String(""), Undefined(), 1, true},
		{"undefined equal undefined", Undefined(), Undefined(), 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := tt.a.Compare(tt.b)
			if ok != tt.wantOK {
				t.Fatalf("Compare ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && sign(got) != tt.want {
				t.Errorf("Compare = %d, want sign %d", got, tt.want)
			}
		})
	}
}

func sign(i int) int {
	switch {
	case i < 0:
		return -1
	case i > 0:
		return 1
	default:
		return 0
	}
}

func TestValueStringParseRoundTrip(t *testing.T) {
	values := []Value{
		Undefined(),
		String("hospital"),
		String("Public Hospital"), // contains a space: must quote
		String(""),
		String("true"),  // would parse as bool if unquoted
		String("123"),   // would parse as int if unquoted
		String("1.5e3"), // would parse as float if unquoted
		String("_|_"),   // would parse as undefined if unquoted
		String(`with "quotes" and, commas`),
		Int(0),
		Int(-42),
		Int(1 << 40),
		Float(0.5),
		Float(-3.25),
		Bool(true),
		Bool(false),
	}
	for _, v := range values {
		t.Run(v.String(), func(t *testing.T) {
			back, err := ParseValue(v.String())
			if err != nil {
				t.Fatalf("ParseValue(%q): %v", v.String(), err)
			}
			if !back.Equal(v) || back.Kind() != v.Kind() {
				t.Errorf("round trip: %#v -> %q -> %#v", v, v.String(), back)
			}
		})
	}
}

func TestParseValueErrors(t *testing.T) {
	if _, err := ParseValue(`"unterminated`); err == nil {
		t.Error("ParseValue on malformed quote: want error")
	}
}

func TestParseValueBare(t *testing.T) {
	v, err := ParseValue("034d1")
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := v.Str(); !ok || s != "034d1" {
		t.Errorf("bare token parsed as %#v, want string 034d1", v)
	}
}

// TestNonNumericTokensSkipStrconv: a token no strconv parser reads — a
// hex-like id such as the clinic's referId, a word — is read as a string
// and printed bare without the error value a failed parse allocates; one
// that may be a number still goes to strconv.
func TestNonNumericTokensSkipStrconv(t *testing.T) {
	for _, tok := range []string{"1cf1a", "034d1", "9f", ".x", "Public"} {
		if mayBeNumber(tok) {
			t.Errorf("mayBeNumber(%q) = true", tok)
		}
		if n := testing.AllocsPerRun(100, func() { ParseValue(tok) }); n != 0 {
			t.Errorf("ParseValue(%q) allocates %.0f times", tok, n)
		}
		v := String(tok)
		if n := testing.AllocsPerRun(100, func() { _ = v.String() }); n != 0 {
			t.Errorf("String(%q).String() allocates %.0f times", tok, n)
		}
	}
	for _, tok := range []string{"12", "-1.5e+3", "1_000", "0x1p-2", "0X1F", ".5", "Inf", "+nan", "12e45", "1e"} {
		if !mayBeNumber(tok) {
			t.Errorf("mayBeNumber(%q) = false", tok)
		}
	}
}

// Property: round-tripping any string through String/ParseValue preserves it.
func TestValueStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		v := String(s)
		back, err := ParseValue(v.String())
		if err != nil {
			return false
		}
		got, ok := back.Str()
		return ok && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric on integers.
func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, okx := Int(a).Compare(Int(b))
		y, oky := Int(b).Compare(Int(a))
		return okx && oky && sign(x) == -sign(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
