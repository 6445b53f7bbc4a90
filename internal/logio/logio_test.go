package logio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"wlq/internal/wlog"
)

// gnarlyLog builds a log exercising every value kind and every character
// that could confuse the codecs (tabs, semicolons, equals signs, quotes).
func gnarlyLog(t *testing.T) *wlog.Log {
	t.Helper()
	var b wlog.Builder
	w1 := b.Start()
	w2 := b.Start()
	steps := []struct {
		wid uint64
		act string
		in  wlog.AttrMap
		out wlog.AttrMap
	}{
		{w1, "GetRefer", nil, wlog.Attrs(
			"hospital", "Public Hospital",
			"referId", "034d1",
			"balance", 1000,
		)},
		{w2, "Weird", wlog.Attrs(
			"tabs", "a\tb",
			"semi", "a;b",
			"eq", "a=b",
			"quote", `say "hi"`,
			"undef", wlog.Undefined(),
		), wlog.Attrs(
			"f", 2.75,
			"neg", -17,
			"flag", true,
			"numlike", "007",
		)},
		{w1, "CheckIn", wlog.Attrs("balance", 1000), wlog.Attrs("referState", "active")},
	}
	for _, s := range steps {
		if err := b.Emit(s.wid, s.act, s.in, s.out); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.End(w1); err != nil {
		t.Fatal(err)
	}
	return b.MustBuild()
}

func TestRoundTripBothFormats(t *testing.T) {
	l := gnarlyLog(t)
	for _, format := range []Format{FormatJSONL, FormatText} {
		t.Run(format.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := Encode(&buf, l, format); err != nil {
				t.Fatalf("Encode: %v", err)
			}
			back, err := Decode(&buf, format)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !l.Equal(back) {
				t.Errorf("round trip mismatch:\nwant:\n%s\ngot:\n%s", l, back)
			}
		})
	}
}

func TestRoundTripPreservesValueKinds(t *testing.T) {
	l := gnarlyLog(t)
	for _, format := range []Format{FormatJSONL, FormatText} {
		var buf bytes.Buffer
		if err := Encode(&buf, l, format); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(&buf, format)
		if err != nil {
			t.Fatal(err)
		}
		rec := back.Record(3) // the "Weird" record
		if rec.Activity != "Weird" {
			t.Fatalf("unexpected record order: %v", rec)
		}
		if got := rec.Out.Get("numlike"); got.Kind() != wlog.KindString {
			t.Errorf("%v: numeric-looking string decoded as %v", format, got.Kind())
		}
		if got := rec.In.Get("undef"); !got.IsUndefined() {
			t.Errorf("%v: undefined decoded as %v", format, got)
		}
		if got := rec.Out.Get("f"); got.Kind() != wlog.KindFloat {
			t.Errorf("%v: float decoded as %v", format, got.Kind())
		}
	}
}

func TestStreamingReader(t *testing.T) {
	l := gnarlyLog(t)
	var buf bytes.Buffer
	if err := Encode(&buf, l, FormatText); err != nil {
		t.Fatal(err)
	}
	// Inject noise the text reader must skip.
	noisy := "# header comment\n\n" + buf.String() + "\n# trailing\n"
	r := NewReader(strings.NewReader(noisy), FormatText)
	var n int
	for {
		_, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		n++
	}
	if n != l.Len() {
		t.Errorf("streamed %d records, want %d", n, l.Len())
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name   string
		format Format
		input  string
	}{
		{"bad json", FormatJSONL, "{not json\n"},
		{"wrong field count", FormatText, "1\t2\t3\n"},
		{"bad lsn", FormatText, "x\t1\t1\tSTART\t-\t-\n"},
		{"bad wid", FormatText, "1\tx\t1\tSTART\t-\t-\n"},
		{"bad seq", FormatText, "1\t1\tx\tSTART\t-\t-\n"},
		{"bad attr pair", FormatText, "1\t1\t1\tSTART\tnopair\t-\n"},
		{"bad attr value", FormatText, "1\t1\t1\tSTART\ta=\"oops\t-\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tt.input), tt.format)
			if err == nil {
				t.Error("Decode: want error")
			}
		})
	}

	// JSONL lines whose error texts are pinned, as encoding/json words them:
	// Decode's names the line, DecodeRecord's does not. "" is no error.
	pinned := []struct{ name, line, err string }{
		{"malformed json", `{not json`,
			`invalid character 'n' looking for beginning of object key string`},
		{"trailing garbage", `{"lsn":1,"wid":1,"seq":1,"act":"START"}x`,
			`invalid character 'x' after top-level value`},
		{"negative lsn", `{"lsn":-1,"wid":1,"seq":1,"act":"START"}`,
			`json: cannot unmarshal number -1 into Go struct field jsonRecord.lsn of type uint64`},
		{"fractional lsn", `{"lsn":1.5,"wid":1,"seq":1,"act":"START"}`,
			`json: cannot unmarshal number 1.5 into Go struct field jsonRecord.lsn of type uint64`},
		{"overflowing lsn", `{"lsn":18446744073709551616,"wid":1,"seq":1,"act":"START"}`,
			`json: cannot unmarshal number 18446744073709551616 into Go struct field jsonRecord.lsn of type uint64`},
		{"bad quoted value", `{"lsn":1,"wid":1,"seq":1,"act":"START","out":{"h":"\"oops"}}`,
			`attribute "h": wlog: malformed quoted value "\"oops": invalid syntax`},
		{"null map", `{"lsn":1,"wid":1,"seq":1,"act":"START","in":null}`, ""},
	}
	for _, p := range pinned {
		t.Run(p.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(p.line+"\n"), FormatJSONL)
			wantErr(t, "Decode", err, "logio: line 1: ", p.err)
			_, err = DecodeRecord([]byte(p.line))
			wantErr(t, "DecodeRecord", err, "logio: ", p.err)
		})
	}
}

// wantErr checks that err reads prefix+text, or is nil when text is "".
func wantErr(t *testing.T, call string, err error, prefix, text string) {
	t.Helper()
	switch {
	case text == "" && err != nil:
		t.Errorf("%s: %v, want no error", call, err)
	case text != "" && (err == nil || err.Error() != prefix+text):
		t.Errorf("%s: %v\nwant %s%s", call, err, prefix, text)
	}
}

func TestDecodeValidatesLog(t *testing.T) {
	// Syntactically fine but semantically invalid (no START record).
	input := "1\t1\t1\tNotStart\t-\t-\n"
	_, err := Decode(strings.NewReader(input), FormatText)
	if !errors.Is(err, wlog.ErrInvalidLog) {
		t.Errorf("Decode: %v, want ErrInvalidLog", err)
	}
}

func TestFormatForPath(t *testing.T) {
	tests := []struct {
		path    string
		want    Format
		wantErr bool
	}{
		{"a.jsonl", FormatJSONL, false},
		{"a.json", FormatJSONL, false},
		{"a.log", FormatText, false},
		{"a.txt", FormatText, false},
		{"A.TSV", FormatText, false},
		{"a.bin", 0, true},
		{"a", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.path, func(t *testing.T) {
			got, err := FormatForPath(tt.path)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && got != tt.want {
				t.Errorf("FormatForPath = %v, want %v", got, tt.want)
			}
			if err != nil && !errors.Is(err, ErrUnknownFormat) {
				t.Errorf("error %v does not wrap ErrUnknownFormat", err)
			}
		})
	}
}

func TestFileRoundTrip(t *testing.T) {
	l := gnarlyLog(t)
	dir := t.TempDir()
	for _, name := range []string{"log.jsonl", "log.txt"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, l); err != nil {
			t.Fatalf("WriteFile(%s): %v", name, err)
		}
		back, err := ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", name, err)
		}
		if !l.Equal(back) {
			t.Errorf("%s: file round trip mismatch", name)
		}
	}
	if err := WriteFile(filepath.Join(dir, "log.bin"), l); err == nil {
		t.Error("WriteFile with unknown extension: want error")
	}
	if _, err := ReadFile(filepath.Join(dir, "absent.jsonl")); err == nil {
		t.Error("ReadFile on missing file: want error")
	}
}

// TestRoundTripRandomized round-trips many randomized logs through both
// codecs. Attribute names and values are drawn from a pool that includes
// hostile characters.
func TestRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	valuePool := []wlog.Value{
		wlog.String("plain"), wlog.String("two words"), wlog.String("a;b=c"),
		wlog.String(""), wlog.String("\"\""), wlog.Int(0), wlog.Int(-5),
		wlog.Float(3.5), wlog.Bool(false), wlog.Undefined(),
	}
	for trial := 0; trial < 25; trial++ {
		var b wlog.Builder
		wids := make([]uint64, 1+rng.Intn(4))
		for i := range wids {
			wids[i] = b.Start()
		}
		for step := 0; step < 30; step++ {
			wid := wids[rng.Intn(len(wids))]
			if !b.Active(wid) {
				continue
			}
			attrs := wlog.AttrMap{}
			for a := 0; a < rng.Intn(4); a++ {
				attrs["attr"+string(rune('a'+a))] = valuePool[rng.Intn(len(valuePool))]
			}
			if err := b.Emit(wid, "Act"+string(rune('A'+rng.Intn(5))), attrs, nil); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(10) == 0 {
				if err := b.End(wid); err != nil {
					t.Fatal(err)
				}
			}
		}
		l := b.MustBuild()
		for _, format := range []Format{FormatJSONL, FormatText} {
			var buf bytes.Buffer
			if err := Encode(&buf, l, format); err != nil {
				t.Fatalf("trial %d %v Encode: %v", trial, format, err)
			}
			back, err := Decode(&buf, format)
			if err != nil {
				t.Fatalf("trial %d %v Decode: %v", trial, format, err)
			}
			if !l.Equal(back) {
				t.Fatalf("trial %d %v: round trip mismatch", trial, format)
			}
		}
	}
}

func TestSplitOutsideQuotes(t *testing.T) {
	tests := []struct {
		in   string
		want int
	}{
		{`a=1;b=2`, 2},
		{`a="x;y";b=2`, 2},
		{`a="x\";y";b=2`, 2},
		{`solo`, 1},
		{``, 1},
	}
	for _, tt := range tests {
		if got := splitOutsideQuotes(tt.in, ';'); len(got) != tt.want {
			t.Errorf("splitOutsideQuotes(%q) = %v, want %d parts", tt.in, got, tt.want)
		}
	}
}

// TestHostileActivityNames: activity names containing the text format's own
// structural characters must round-trip through both codecs.
func TestHostileActivityNames(t *testing.T) {
	names := []string{
		"tab\there", "new\nline", "#leadinghash", `"quoted"`, "trailing ",
		"carriage\rreturn", "plain",
	}
	var b wlog.Builder
	w := b.Start()
	for _, name := range names {
		if err := b.Emit(w, name, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	l := b.MustBuild()
	for _, format := range []Format{FormatJSONL, FormatText} {
		var buf bytes.Buffer
		if err := Encode(&buf, l, format); err != nil {
			t.Fatalf("%v Encode: %v", format, err)
		}
		back, err := Decode(&buf, format)
		if err != nil {
			t.Fatalf("%v Decode: %v", format, err)
		}
		if !l.Equal(back) {
			t.Errorf("%v: hostile activity names did not round-trip", format)
		}
	}
}

// TestHostileAttributeNames: attribute names containing the k=v;k=v
// structural characters must round-trip through both codecs.
func TestHostileAttributeNames(t *testing.T) {
	var b wlog.Builder
	w := b.Start()
	attrs := wlog.AttrMap{
		"with=equals": wlog.Int(1),
		"with;semi":   wlog.Int(2),
		"with space":  wlog.Int(3),
		`"prequoted"`: wlog.Int(4),
		"with\ttab":   wlog.Int(5),
		"":            wlog.Int(6),
		"plain":       wlog.Int(7),
	}
	if err := b.Emit(w, "A", attrs, attrs); err != nil {
		t.Fatal(err)
	}
	l := b.MustBuild()
	for _, format := range []Format{FormatJSONL, FormatText} {
		var buf bytes.Buffer
		if err := Encode(&buf, l, format); err != nil {
			t.Fatalf("%v Encode: %v", format, err)
		}
		back, err := Decode(&buf, format)
		if err != nil {
			t.Fatalf("%v Decode: %v\npayload:\n%s", format, err, buf.String())
		}
		if !l.Equal(back) {
			t.Errorf("%v: hostile attribute names did not round-trip:\n%s\nvs\n%s",
				format, l, back)
		}
	}
}
