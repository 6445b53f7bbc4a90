package incident

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestAppendWireSeparates: AppendWire extends the list its buffer ends in,
// or opens one, and leaves a whole list after each call, so a list can be
// written in pieces — one instance's run at a time — and read whenever the
// writer stops. A comma comes before every element but a list's first.
func TestAppendWireSeparates(t *testing.T) {
	run2 := []Incident{New(2, 1, 5), New(2, 3, 100)}
	for _, c := range []struct {
		dst  string
		incs []Incident
		want string
	}{
		{"", nil, "[]"},
		{"[]", nil, "[]"},
		{"", run2, `[{"wid":2,"seqs":[1,5]},{"wid":2,"seqs":[3,100]}]`},
		{"[]", run2[:1], `[{"wid":2,"seqs":[1,5]}]`},
		{`{"incidents":`, run2[:1], `{"incidents":[{"wid":2,"seqs":[1,5]}]`},
		{`[{"wid":1,"seqs":[7]}]`, nil, `[{"wid":1,"seqs":[7]}]`},
		{`[{"wid":1,"seqs":[7]}]`, []Incident{New(1, 9), New(12, 0, 10, 99)}, `[{"wid":1,"seqs":[7]},{"wid":1,"seqs":[9]},{"wid":12,"seqs":[0,10,99]}]`},
	} {
		if got := string(AppendWire([]byte(c.dst), c.incs)); got != c.want {
			t.Errorf("AppendWire(%q, %v) = %s, want %s", c.dst, c.incs, got, c.want)
		}
	}
}

// appendIncidents appends to dst the wire-form list the blocks concatenate
// to, written as a served scan writes one: AppendWire over each block in
// turn, after an empty list.
func appendIncidents(dst []byte, blocks ...[]Incident) []byte {
	dst = AppendWire(dst, nil)
	for _, b := range blocks {
		dst = AppendWire(dst, b)
	}
	return dst
}

// incidentDoc is what the codec replaced: the reflect-encoded wire form of
// one incident. The tests hold AppendWire to it byte for byte.
type incidentDoc struct {
	WID  uint64   `json:"wid"`
	Seqs []uint64 `json:"seqs"`
}

func fromIncidents(incs []Incident) []incidentDoc {
	out := make([]incidentDoc, len(incs))
	for i, inc := range incs {
		out[i] = incidentDoc{WID: inc.WID(), Seqs: inc.Seqs()}
	}
	return out
}

// incidentsFromBytes derives a canonical incident list from fuzz input:
// groups of one wid byte, one length byte and that many 16-bit seqs; a group
// New would reject (duplicate seqs) is dropped.
func incidentsFromBytes(b []byte) []Incident {
	var incs []Incident
	for len(b) >= 2 {
		wid, n := uint64(b[0]), int(b[1]%5)+1
		b = b[2:]
		if len(b) < 2*n {
			break
		}
		seqs := make([]uint64, n)
		seen := make(map[uint64]bool, n)
		for i := range seqs {
			seqs[i] = uint64(binary.LittleEndian.Uint16(b[2*i:]))
			seen[seqs[i]] = true
		}
		b = b[2*n:]
		if len(seen) == n {
			incs = append(incs, New(wid<<56|wid, seqs...))
		}
	}
	return NewSet(incs...).Incidents()
}

func equalIncidents(a, b []Incident) bool {
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

// TestListPrefixesAreRejected: the reader compares eight bytes in one load,
// and a load near the end of the bytes is where such a reader breaks. Every
// proper prefix of a canonical list — numbers of 19 and 20 digits in both
// positions — is refused under ErrMalformedIncidents and never panics, by
// DecodeIncidents and by ScanList, which a worker reply's reader calls. A
// number past uint64 is refused in either position.
func TestListPrefixesAreRejected(t *testing.T) {
	const (
		d19 = "1234567890123456789"
		d20 = "18446744073709551615" // the largest uint64
	)
	list := `[{"wid":` + d19 + `,"seqs":[1,` + d20 + `]},{"wid":` + d20 + `,"seqs":[` + d19 + `]},{"wid":` + d20 + `,"seqs":[` + d20 + `]}]`
	incs := []Incident{New(1234567890123456789, 1, 1<<64-1), New(1<<64-1, 1234567890123456789), New(1<<64-1, 1<<64-1)}
	if got, err := DecodeIncidents([]byte(list)); err != nil || !equalIncidents(got, incs) || string(appendIncidents(nil, incs)) != list {
		t.Fatalf("DecodeIncidents(%s) = %v, %v", list, got, err)
	}
	for n := range len(list) {
		// The cut-off bytes stay in the slice's capacity.
		if got, err := DecodeIncidents([]byte(list)[:n]); !errors.Is(err, ErrMalformedIncidents) {
			t.Errorf("DecodeIncidents(%s) = %v, %v; want ErrMalformedIncidents", list[:n], got, err)
		}
		if _, _, err := ScanList([]byte(list)[:n], 0); !errors.Is(err, ErrMalformedIncidents) {
			t.Errorf("ScanList(%s): %v; want ErrMalformedIncidents", list[:n], err)
		}
	}
	for _, x := range []string{"18446744073709551616", "123456789012345678901"} {
		for _, in := range []string{`[{"wid":` + x + `,"seqs":[1]}]`, `[{"wid":1,"seqs":[1,` + x + `]}]`} {
			if got, err := DecodeIncidents([]byte(in)); !errors.Is(err, ErrMalformedIncidents) || !strings.Contains(err.Error(), "overflows") {
				t.Errorf("DecodeIncidents(%s) = %v, %v; want an overflow", in, got, err)
			}
		}
	}
	// Twenty-one digits that a leading zero keeps inside uint64.
	if got, err := DecodeIncidents([]byte(`[{"wid":000000000000000000001,"seqs":[1]}]`)); err == nil || !strings.Contains(err.Error(), "leading zero") {
		t.Errorf("a wid with leading zeros: %v, %v", got, err)
	}
}

// FuzzIncidentCodec: the encoder is encoding/json's, byte for byte, whatever
// blocks the list comes in; decode inverts encode; and the decoder accepts a list exactly when its bytes are
// what AppendWire writes for the incidents encoding/json reads from
// them, returning an error, never panicking, on anything else. The seeds are
// testdata/fuzz/FuzzIncidentCodec: encoder inputs, both spellings of a
// well-formed reply, and every kind of malformed one.
func FuzzIncidentCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		incs := incidentsFromBytes(b)
		want, err := json.Marshal(fromIncidents(incs))
		if err != nil {
			t.Fatal(err)
		}
		enc := appendIncidents(nil, incs)
		if !bytes.Equal(enc, want) {
			t.Fatalf("AppendWire = %s, encoding/json = %s", enc, want)
		}
		back, err := DecodeIncidents(enc)
		if err != nil || !equalIncidents(back, incs) {
			t.Fatalf("DecodeIncidents(%s) = %v, %v", enc, back, err)
		}
		// The same list in blocks, cut where the input's bytes say, empty
		// blocks included: the bytes do not depend on the cuts.
		var blocks [][]Incident
		rest := incs
		for _, c := range b {
			cut := min(int(c%8), len(rest))
			blocks, rest = append(blocks, rest[:cut]), rest[cut:]
		}
		if inBlocks := appendIncidents(nil, append(blocks, rest)...); !bytes.Equal(inBlocks, enc) {
			t.Fatalf("AppendWire over %d blocks = %s, over one = %s", len(blocks)+1, inBlocks, enc)
		}
		// The raw input as a list: accepted iff it is the canonical bytes of
		// a canonical list.
		got, err := DecodeIncidents(b)
		if err != nil && !errors.Is(err, ErrMalformedIncidents) {
			t.Fatalf("DecodeIncidents(%q): %v does not wrap ErrMalformedIncidents", b, err)
		}
		var docs []incidentDoc
		canonical := json.Unmarshal(b, &docs) == nil && docs != nil && bytes.Equal(b, mustMarshal(t, docs)) && isCanonical(docs)
		if (err == nil) != canonical {
			t.Fatalf("DecodeIncidents(%q) = %v, %v; canonical wire form: %v", b, got, err, canonical)
		}
		if err == nil && !bytes.Equal(appendIncidents(nil, got), b) {
			t.Fatalf("DecodeIncidents(%q) = %v, which encodes otherwise", b, got)
		}
	})
}

// isCanonical reports whether docs satisfy Definition 4 and come in
// canonical order.
func isCanonical(docs []incidentDoc) bool {
	for i, d := range docs {
		if len(d.Seqs) == 0 || !slices.IsSorted(d.Seqs) || len(slices.Compact(slices.Clone(d.Seqs))) != len(d.Seqs) {
			return false
		}
		if i > 0 && New(docs[i-1].WID, docs[i-1].Seqs...).Compare(New(d.WID, d.Seqs...)) >= 0 {
			return false
		}
	}
	return true
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// BenchmarkIncidentCodec prices the codec on a clinic-sized answer (10k
// incidents of two records), beside the reflect encoding it replaced.
func BenchmarkIncidentCodec(b *testing.B) {
	incs := make([]Incident, 10000)
	for i := range incs {
		incs[i] = New(uint64(i/2+1), uint64(i%2+1), uint64(i%2+7))
	}
	enc := appendIncidents(nil, incs)
	b.Run("append", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			appendIncidents(nil, incs)
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			mustMarshalB(b, fromIncidents(incs))
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeIncidents(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := scanIncidentList(enc, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-reflect", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			var docs []incidentDoc
			if err := json.Unmarshal(enc, &docs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func mustMarshalB(b *testing.B, v any) []byte {
	out, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return out
}
