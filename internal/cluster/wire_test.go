package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"wlq/internal/core/incident"
)

// incidentDoc is what the codec replaced: the reflect-encoded wire form of
// one incident. The tests hold AppendIncidents to it byte for byte.
type incidentDoc struct {
	WID  uint64   `json:"wid"`
	Seqs []uint64 `json:"seqs"`
}

func fromIncidents(incs []incident.Incident) []incidentDoc {
	out := make([]incidentDoc, len(incs))
	for i, inc := range incs {
		out[i] = incidentDoc{WID: inc.WID(), Seqs: inc.Seqs()}
	}
	return out
}

// incidentsFromBytes derives a canonical incident list from fuzz input:
// groups of one wid byte, one length byte and that many 16-bit seqs; a group
// New would reject (duplicate seqs) is dropped.
func incidentsFromBytes(b []byte) []incident.Incident {
	var incs []incident.Incident
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
			incs = append(incs, incident.New(wid<<56|wid, seqs...))
		}
	}
	return incident.NewSet(incs...).Incidents()
}

func equalIncidents(a, b []incident.Incident) bool {
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

func TestAppendIncidentsMatchesEncodingJSON(t *testing.T) {
	for name, incs := range map[string][]incident.Incident{
		"nil":    nil,
		"one":    {incident.New(2, 5, 9)},
		"widest": {incident.New(0, 0), incident.New(1<<64-1, 1, 1<<64-1)},
		"several": incident.NewSet(
			incident.New(7, 3), incident.New(7, 1, 2), incident.New(1, 10, 20, 30), incident.New(300, 4, 1000),
		).Incidents(),
	} {
		want, err := json.Marshal(fromIncidents(incs))
		if err != nil {
			t.Fatal(err)
		}
		got := AppendIncidents(nil, incs)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: AppendIncidents = %s, encoding/json = %s", name, got, want)
		}
		if withPrefix := AppendIncidents([]byte("x"), incs); string(withPrefix) != "x"+string(want) {
			t.Errorf("%s: AppendIncidents does not append: %s", name, withPrefix)
		}
		back, err := DecodeIncidents(got)
		if err != nil || !equalIncidents(back, incs) {
			t.Errorf("%s: DecodeIncidents(%s) = %v, %v", name, got, back, err)
		}
	}
}

// TestDecodeIncidentsAcceptsAnyJSONSpelling: a peer that indents, or writes
// the keys the other way round, sends the same list.
func TestDecodeIncidentsAcceptsAnyJSONSpelling(t *testing.T) {
	want := []incident.Incident{incident.New(1, 2, 3), incident.New(2, 5)}
	for _, in := range []string{
		`[{"wid":1,"seqs":[2,3]},{"wid":2,"seqs":[5]}]`,
		" [ {\n\t\"wid\" : 1 ,\r\n \"seqs\" : [ 2 , 3 ] } , { \"seqs\":[5], \"wid\":2 } ] \n",
	} {
		got, err := DecodeIncidents([]byte(in))
		if err != nil || !equalIncidents(got, want) {
			t.Errorf("DecodeIncidents(%q) = %v, %v", in, got, err)
		}
	}
	if got, err := DecodeIncidents([]byte(" [ ] ")); err != nil || len(got) != 0 {
		t.Errorf("empty list: %v, %v", got, err)
	}
}

func TestDecodeIncidentsRejects(t *testing.T) {
	for in, why := range map[string]string{
		``:                                 `want "["`,
		`null`:                             `want "["`,
		`{}`:                               `want "["`,
		`[`:                                `want "{"`,
		`[{"wid":1,"seqs":[2]}`:            "want ','",
		`[{"wid":1,"seqs":[2]}] x`:         "after the closing bracket",
		"[]\x00":                           "after the closing bracket",
		`[{"wid":1,"seqs":[2]},]`:          `want "{"`,
		`[{"wid":1,"seqs":[]}]`:            "empty incident",
		`[{"wid":1,"seqs":[3,3]}]`:         "not strictly increasing",
		`[{"wid":1,"seqs":[5,2]}]`:         "not strictly increasing",
		`[{"wid":1,"seqs":[2,]}]`:          "want an unsigned integer",
		`[{"wid":1}]`:                      `lacks "wid" or "seqs"`,
		`[{"seqs":[1]}]`:                   `lacks "wid" or "seqs"`,
		`[{}]`:                             "want the key",
		`[{"wid":1,"wid":1,"seqs":[2]}]`:   "want the key",
		`[{"wid":1,"seqs":[2],"extra":0}]`: "want the key",
		`[{"wid":-1,"seqs":[2]}]`:          "want an unsigned integer",
		`[{"wid":1.0,"seqs":[2]}]`:         "want an unsigned integer",
		`[{"wid":1e3,"seqs":[2]}]`:         "want an unsigned integer",
		`[{"wid":01,"seqs":[2]}]`:          "leading zero",
		`[{"wid":"1","seqs":[2]}]`:         "want an unsigned integer",
		`[{"wid":18446744073709551616,"seqs":[2]}]`:   "overflows",
		`[{"wid":1,"seqs":2}]`:                        `want "["`,
		`[{"wid":2,"seqs":[1]},{"wid":1,"seqs":[1]}]`: "canonical order",
		`[{"wid":1,"seqs":[1]},{"wid":1,"seqs":[1]}]`: "canonical order",
	} {
		got, err := DecodeIncidents([]byte(in))
		if err == nil {
			t.Errorf("DecodeIncidents(%s) = %v, want an error", in, got)
			continue
		}
		if !errors.Is(err, ErrMalformedIncidents) || !strings.Contains(err.Error(), why) {
			t.Errorf("DecodeIncidents(%s): %v, want ErrMalformedIncidents mentioning %q", in, err, why)
		}
	}
}

// TestDecodeIncidentsSlabs: seqs are carved from shared slabs; an incident
// that straddles a slab boundary, or is larger than a slab, must come out
// whole and must not disturb its neighbours.
func TestDecodeIncidentsSlabs(t *testing.T) {
	var incs []incident.Incident
	for wid := uint64(1); wid <= 3; wid++ {
		for _, n := range []int{seqSlab - 1, 3, 2*seqSlab + 5} {
			seqs := make([]uint64, n)
			for i := range seqs {
				seqs[i] = uint64(i) + wid
			}
			incs = append(incs, incident.New(wid, seqs...))
		}
	}
	incs = incident.NewSet(incs...).Incidents()
	got, err := DecodeIncidents(AppendIncidents(nil, incs))
	if err != nil || !equalIncidents(got, incs) {
		t.Fatalf("round trip across slab boundaries failed: %v", err)
	}
}

// TestIncidentsInADocument: the Incidents field type carries the codec into
// encoding/json both ways, and surfaces its error unwrapped enough for
// errors.Is.
func TestIncidentsInADocument(t *testing.T) {
	resp := WorkerQueryResponse{Incidents: Incidents{incident.New(2, 5, 9)}}
	resp.Worker = "w"
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"incidents":[{"wid":2,"seqs":[5,9]}]`) {
		t.Fatalf("marshalled %s", b)
	}
	var back WorkerQueryResponse
	if err := json.Unmarshal(b, &back); err != nil || !equalIncidents(back.Incidents, resp.Incidents) {
		t.Fatalf("unmarshalled %v, %v", back.Incidents, err)
	}
	err = json.NewDecoder(strings.NewReader(`{"incidents":[{"wid":1,"seqs":[]}]}`)).Decode(&back)
	if !errors.Is(err, ErrMalformedIncidents) {
		t.Fatalf("decoding an empty incident: %v, want ErrMalformedIncidents", err)
	}
}

// FuzzIncidentCodec: the encoder is encoding/json's, byte for byte; decode
// inverts encode; and the decoder returns an error, never panics, on bytes
// that are not an incident list. The seeds are testdata/fuzz/FuzzIncidentCodec:
// encoder inputs, both spellings of a well-formed reply, and every kind of
// malformed one.
func FuzzIncidentCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		incs := incidentsFromBytes(b)
		want, err := json.Marshal(fromIncidents(incs))
		if err != nil {
			t.Fatal(err)
		}
		enc := AppendIncidents(nil, incs)
		if !bytes.Equal(enc, want) {
			t.Fatalf("AppendIncidents = %s, encoding/json = %s", enc, want)
		}
		back, err := DecodeIncidents(enc)
		if err != nil || !equalIncidents(back, incs) {
			t.Fatalf("DecodeIncidents(%s) = %v, %v", enc, back, err)
		}
		// The raw input as a reply body: whatever it is, a list or an error.
		if got, err := DecodeIncidents(b); err == nil {
			// What it accepts, encoding/json reads as the same list.
			var docs []incidentDoc
			if jerr := json.Unmarshal(b, &docs); jerr != nil {
				t.Fatalf("DecodeIncidents accepted %q, encoding/json does not: %v", b, jerr)
			}
			if !bytes.Equal(AppendIncidents(nil, got), mustMarshal(t, docs)) {
				t.Fatalf("DecodeIncidents(%q) = %v, encoding/json read %v", b, got, docs)
			}
		} else if !errors.Is(err, ErrMalformedIncidents) {
			t.Fatalf("DecodeIncidents(%q): %v does not wrap ErrMalformedIncidents", b, err)
		}
	})
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
// incidents of two records), beside the reflect encoding it replaced and
// beside the same bytes travelling as a field of a document.
func BenchmarkIncidentCodec(b *testing.B) {
	incs := make([]incident.Incident, 10000)
	for i := range incs {
		incs[i] = incident.New(uint64(i/2+1), uint64(i%2+1), uint64(i%2+7))
	}
	enc := AppendIncidents(nil, incs)
	doc := mustMarshalB(b, WorkerQueryResponse{Incidents: incs})
	b.Run("append", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			AppendIncidents(nil, incs)
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			mustMarshalB(b, fromIncidents(incs))
		}
	})
	b.Run("document", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			mustMarshalB(b, WorkerQueryResponse{Incidents: incs})
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
	b.Run("decode-reflect", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			var docs []incidentDoc
			if err := json.Unmarshal(enc, &docs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-document", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			var resp WorkerQueryResponse
			if err := json.NewDecoder(bytes.NewReader(doc)).Decode(&resp); err != nil {
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
