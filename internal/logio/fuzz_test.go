package logio

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"wlq/internal/wlog"
)

// FuzzDecodeText checks the text-format reader never panics on arbitrary
// bytes and that any log it accepts satisfies Definition 2 and re-encodes
// to an equal log.
func FuzzDecodeText(f *testing.F) {
	seeds := []string{
		"1\t1\t1\tSTART\t-\t-\n",
		"1\t1\t1\tSTART\t-\t-\n2\t1\t2\tA\tx=1\ty=\"a;b\"\n",
		"# comment\n\n1\t1\t1\tSTART\t-\t-\n",
		"1\t1\t1\tSTART\t-\n",                       // missing field
		"x\t1\t1\tSTART\t-\t-\n",                    // bad lsn
		"1\t1\t1\tSTART\ta=\"\t-\n",                 // broken quote
		"1\t1\t1\tA\t-\t-\n",                        // invalid log (no START)
		"1\t1\t1\tSTART\t-\t-\r\n",                  // CRLF
		strings.Repeat("1\t1\t1\tSTART\t-\t-\n", 3), // duplicate lsn
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		l, err := Decode(strings.NewReader(input), FormatText)
		if err != nil {
			return
		}
		if verr := l.Validate(); verr != nil {
			t.Fatalf("Decode accepted an invalid log: %v", verr)
		}
		var sb strings.Builder
		if err := Encode(&sb, l, FormatText); err != nil {
			t.Fatalf("re-Encode failed: %v", err)
		}
		back, err := Decode(strings.NewReader(sb.String()), FormatText)
		if err != nil {
			t.Fatalf("re-Decode failed: %v", err)
		}
		if !l.Equal(back) {
			t.Fatal("text round trip changed the log")
		}
	})
}

// FuzzDecodeJSONL is the same property for the JSONL codec.
func FuzzDecodeJSONL(f *testing.F) {
	seeds := []string{
		`{"lsn":1,"wid":1,"seq":1,"act":"START"}` + "\n",
		`{"lsn":1,"wid":1,"seq":1,"act":"START"}` + "\n" +
			`{"lsn":2,"wid":1,"seq":2,"act":"A","out":{"x":"1"}}` + "\n",
		`{not json}`,
		`{"lsn":0}`,
		"",
		`{"lsn":1,"wid":1,"seq":1,"act":"START"}` + "\n" +
			`{"lsn":2,"wid":1,"seq":2,"act":"A","out":{"x":"NaN"}}` + "\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		l, err := Decode(strings.NewReader(input), FormatJSONL)
		if err != nil {
			return
		}
		if verr := l.Validate(); verr != nil {
			t.Fatalf("Decode accepted an invalid log: %v", verr)
		}
		var sb strings.Builder
		if err := Encode(&sb, l, FormatJSONL); err != nil {
			t.Fatalf("re-Encode failed: %v", err)
		}
		back, err := Decode(strings.NewReader(sb.String()), FormatJSONL)
		if err != nil {
			t.Fatalf("re-Decode failed: %v", err)
		}
		if !l.Equal(back) {
			t.Fatal("jsonl round trip changed the log")
		}
	})
}

// FuzzImportCSV checks the CSV event-log importer never panics on arbitrary
// bytes and that any log it accepts satisfies Definition 2. The seeds
// include the torn-file shapes the fault-injection harness produces
// (truncated mid-record, bare header, reserved activities).
func FuzzImportCSV(f *testing.F) {
	seeds := []string{
		"case,activity\nc1,A\nc1,B\n",
		"case,activity,time\nc1,A,2026-01-01\nc2,B,2026-01-02\n",
		"case,activity\nc1,START\n", // reserved activity
		"case,activity\nc1,A\nc1",   // truncated mid-record
		"case,activity\n",           // header only
		"activity\nA\n",             // missing case column
		"case,activity\n\"c1,A\n",   // broken quote
		"case,activity,x\nc1,A,1;2\n",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		l, err := ImportCSV(strings.NewReader(input), CSVOptions{CompleteCases: true})
		if err != nil {
			return
		}
		if verr := l.Validate(); verr != nil {
			t.Fatalf("ImportCSV accepted an invalid log: %v", verr)
		}
	})
}

// FuzzImportXES is the same property for the XES importer.
func FuzzImportXES(f *testing.F) {
	seeds := []string{
		`<log><trace><event><string key="concept:name" value="A"/></event></trace></log>`,
		`<log><trace><event><string key="concept:name" value="A"/><int key="n" value="3"/></event></trace></log>`,
		`<log><trace><event><string key="k" value="v"/></event></trace></log>`, // no concept:name
		`<log><trace><event><string key="concept:name" value="START"/></event></trace></log>`,
		`<log><trace><event>`, // truncated mid-element
		`<log></log>`,
		`not xml at all`,
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		l, err := ImportXES(strings.NewReader(input), XESOptions{CompleteCases: true})
		if err != nil {
			return
		}
		if verr := l.Validate(); verr != nil {
			t.Fatalf("ImportXES accepted an invalid log: %v", verr)
		}
	})
}

// FuzzDecodeRecord holds the JSONL scanner to encoding/json: on any line
// scanRecord reads, unmarshalRecord returns no error and an equal record,
// each attribute map nil exactly when the scanner's is. The seeds are every
// line shape of a clinic log and other spellings the scanner reads, then
// one line per rule that sends a line to encoding/json; which of the two
// each seed is, is checked as it is added.
func FuzzDecodeRecord(f *testing.F) {
	reads := []string{
		`{"lsn":1,"wid":1,"seq":1,"act":"START"}`,
		`{"lsn":126,"wid":58,"seq":2,"act":"GetRefer","out":{"balance":"7000","hospital":"\"People Hospital\"","referId":"d1b31","referState":"start","year":"2016"}}`,
		`{"lsn":274,"wid":102,"seq":3,"act":"CheckIn","in":{"balance":"4500","referId":"c00cf","referState":"start"},"out":{"referState":"active"}}`,
		`{"lsn":426,"wid":102,"seq":4,"act":"SeeDoctor","in":{"referId":"c00cf","referState":"active"}}`,
		`{"lsn":3350,"wid":1400,"seq":5,"act":"PayTreatment","in":{"referId":"d7d65","referState":"active"},"out":{"receipt1":"4600","receipt1State":"active"}}`,
		`{"lsn":3627,"wid":674,"seq":5,"act":"UpdateRefer","in":{"balance":"2500","referId":"\"26755\"","referState":"active"},"out":{"balance":"3500"}}`,
		`{"lsn":4096,"wid":1400,"seq":6,"act":"TakeTreatment","in":{"receipt1":"4600","referId":"d7d65"}}`,
		`{"lsn":4952,"wid":37,"seq":6,"act":"CompleteRefer","in":{"balance":"9500","referState":"active"},"out":{"referState":"complete"}}`,
		`{"lsn":4953,"wid":37,"seq":7,"act":"END"}`,
		`{"lsn":5055,"wid":697,"seq":6,"act":"GetReimburse","in":{"balance":"2000","referState":"active"},"out":{"amount":"0","balance":"2000","reimburse":"0"}}`,
		// Read by the scanner, but spelled otherwise than EncodeRecord
		// writes: key order, whitespace, escapes, empty maps, a repeated
		// attribute name, the largest lsn, a NaN attribute.
		" {\"act\" : \"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\", \"seq\":0,\t\"wid\":10,\"lsn\":9}\r\n",
		`{"lsn":1,"wid":1,"seq":1,"act":"START","in":{},"out":{}}`,
		`{"lsn":1,"wid":1,"seq":2,"act":"A","out":{"a":"1","a":"x"}}`,
		`{"lsn":18446744073709551615,"wid":1,"seq":1,"act":"héllo"}`,
		`{"lsn":2,"wid":1,"seq":2,"act":"A","out":{"x":"NaN"}}`,
		`{}`,
	}
	fallsBack := []string{
		`{"lsn":1,"wid":1,"seq":1,"act":"START","x":1}`,         // unknown key
		`{"LSN":1,"wid":1,"seq":1,"act":"START"}`,               // key in other case
		`{"lsn":1,"lsn":2,"wid":1,"seq":1,"act":"START"}`,       // repeated key
		`{"lsn":1,"wid":1,"seq":1,"act":"START","in":null}`,     // null map
		`{"lsn":null,"wid":1,"seq":1,"act":"START"}`,            // null number
		`{"lsn":-1,"wid":1,"seq":1,"act":"START"}`,              // sign
		`{"lsn":1.5,"wid":1,"seq":1,"act":"START"}`,             // fraction
		`{"lsn":1e3,"wid":1,"seq":1,"act":"START"}`,             // exponent
		`{"lsn":01,"wid":1,"seq":1,"act":"START"}`,              // leading zero
		`{"lsn":18446744073709551616,"wid":1,"act":"START"}`,    // overflow
		`{"lsn":1,"wid":1,"seq":1,"act":"\u0041"}`,              // \u escape
		"{\"lsn\":1,\"wid\":1,\"seq\":1,\"act\":\"\xff\"}",      // invalid UTF-8
		`{"lsn":1,"wid":1,"seq":1,"act":"START"}x`,              // trailing bytes
		`{"lsn":1,"wid":1,"seq":1,"act":"A","out":{"h":"\"x"}}`, // value ParseValue refuses
		"{\"lsn\":1,\"act\":\"a\tb\"}",                          // control byte in a string
		`{"lsn":1,"act":"a\qb"}`,                                // unknown escape
		`{"lsn":1,"wid":1,}`,                                    // trailing comma
	}
	for _, s := range reads {
		if _, ok := scanRecord([]byte(s), nil); !ok {
			f.Fatalf("scanner does not read %q", s)
		}
		f.Add([]byte(s))
	}
	for _, s := range fallsBack {
		if _, ok := scanRecord([]byte(s), nil); ok {
			f.Fatalf("scanner reads %q", s)
		}
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := scanRecord(line, make(nameTable))
		if !ok {
			return
		}
		want, err := unmarshalRecord(line)
		if err != nil {
			t.Fatalf("scanner read %q as %v, encoding/json refuses it: %v", line, got, err)
		}
		if !got.Equal(want) || (got.In == nil) != (want.In == nil) || (got.Out == nil) != (want.Out == nil) {
			t.Fatalf("%q: scanner reads %v (in nil %t, out nil %t), encoding/json %v (in nil %t, out nil %t)",
				line, got, got.In == nil, got.Out == nil, want, want.In == nil, want.Out == nil)
		}
	})
}

// FuzzParseValue checks value parsing never panics, that parsing is total
// for the printed form of what it accepts, and that it agrees with
// parseValueRef, which tries strconv on every token.
func FuzzParseValue(f *testing.F) {
	for _, s := range []string{"_|_", "123", "-4.5", "true", `"quoted"`, "bare", `"\x"`, `"`,
		"nAn", "+Inf", "-infinity", ".5", "+.5e3", "0x1p-2", "1_000", "_1", "+", "-", "", "+x", "n",
		"1cf1a", "419db", "12e45", "1e", "1e+", "0X1F", "0x", "1_0e5", "9-9"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		v, err := wlog.ParseValue(input)
		ref, refErr := parseValueRef(input)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || v.Kind() != ref.Kind() || !v.Equal(ref) {
			t.Fatalf("ParseValue(%q) = %v, %v; strconv first: %v, %v", input, v, err, ref, refErr)
		}
		if err != nil {
			return
		}
		back, err := wlog.ParseValue(v.String())
		if err != nil {
			t.Fatalf("printed form %q of %q does not re-parse: %v", v.String(), input, err)
		}
		if !back.Equal(v) {
			t.Fatalf("value round trip changed: %q -> %v -> %v", input, v, back)
		}
	})
}

// parseValueRef is wlog.ParseValue as it was before its number pre-filter:
// every token that is not a literal or quoted goes to strconv.
func parseValueRef(s string) (wlog.Value, error) {
	switch {
	case s == "_|_":
		return wlog.Undefined(), nil
	case s == "true":
		return wlog.Bool(true), nil
	case s == "false":
		return wlog.Bool(false), nil
	}
	if len(s) >= 2 && s[0] == '"' {
		unq, err := strconv.Unquote(s)
		if err != nil {
			return wlog.Value{}, fmt.Errorf("wlog: malformed quoted value %q: %w", s, err)
		}
		return wlog.String(unq), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return wlog.Int(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return wlog.Float(f), nil
	}
	return wlog.String(s), nil
}
