package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wlq/internal/core/eval"
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

// TestDecodeIncidentsRejectsOtherSpellings: a list encoding/json reads as
// the very incidents of the canonical bytes, spelled otherwise — indented,
// keys the other way round, space anywhere — is not the wire form, so it
// does not read: a coordinator splices what it reads as it stands.
func TestDecodeIncidentsRejectsOtherSpellings(t *testing.T) {
	canonical := AppendIncidents(nil, []incident.Incident{incident.New(1, 2, 3), incident.New(2, 5)})
	var indented bytes.Buffer
	if err := json.Indent(&indented, canonical, "", "  "); err != nil {
		t.Fatal(err)
	}
	for in, why := range map[string]string{
		indented.String(): `want "{\"wid\":"`,
		`[{"seqs":[2,3],"wid":1},{"seqs":[5],"wid":2}]`:                                       `want "{\"wid\":"`,
		`[{"wid":1,"seqs":[2,3]},{"wid":2,"seqs":[5]}]` + "\n":                                "after the closing bracket",
		" " + string(canonical):                                                               `want "["`,
		`[{"wid":1, "seqs":[2,3]},{"wid":2,"seqs":[5]}]`:                                      `want ",\"seqs\":["`,
		`[{"wid":1,"seqs":[2, 3]},{"wid":2,"seqs":[5]}]`:                                      "want an unsigned integer",
		" [ {\n\t\"wid\" : 1 ,\r\n \"seqs\" : [ 2 , 3 ] } , { \"seqs\":[5], \"wid\":2 } ] \n": `want "["`,
		" [ ] ": `want "["`,
		"[ ]":   `want "{\"wid\":"`,
	} {
		var docs []incidentDoc
		if err := json.Unmarshal([]byte(in), &docs); err != nil {
			t.Fatalf("%q is not JSON at all: %v", in, err)
		}
		got, err := DecodeIncidents([]byte(in))
		if err == nil {
			t.Errorf("DecodeIncidents(%q) = %v, want an error", in, got)
			continue
		}
		if !errors.Is(err, ErrMalformedIncidents) || !strings.Contains(err.Error(), why) {
			t.Errorf("DecodeIncidents(%q): %v, want ErrMalformedIncidents mentioning %q", in, err, why)
		}
	}
	if got, err := DecodeIncidents([]byte("[]")); err != nil || len(got) != 0 {
		t.Errorf("empty list: %v, %v", got, err)
	}
}

func TestDecodeIncidentsRejects(t *testing.T) {
	for in, why := range map[string]string{
		``:                                 `want "["`,
		`null`:                             `want "["`,
		`{}`:                               `want "["`,
		`[`:                                `want "{\"wid\":"`,
		`[{"wid":1,"seqs":[2]}`:            `want ',' or "]"`,
		`[{"wid":1,"seqs":[2]}] x`:         "after the closing bracket",
		"[]\x00":                           "after the closing bracket",
		`[{"wid":1,"seqs":[2]},]`:          `want "{\"wid\":"`,
		`[{"wid":1,"seqs":[]}]`:            "empty incident",
		`[{"wid":1,"seqs":[3,3]}]`:         "not strictly increasing",
		`[{"wid":1,"seqs":[5,2]}]`:         "not strictly increasing",
		`[{"wid":1,"seqs":[2,]}]`:          "want an unsigned integer",
		`[{"wid":1}]`:                      `want ",\"seqs\":["`,
		`[{"seqs":[1]}]`:                   `want "{\"wid\":"`,
		`[{}]`:                             `want "{\"wid\":"`,
		`[{"wid":1,"wid":1,"seqs":[2]}]`:   `want ",\"seqs\":["`,
		`[{"wid":1,"seqs":[2],"extra":0}]`: `want ',' or "]}"`,
		`[{"wid":-1,"seqs":[2]}]`:          "want an unsigned integer",
		`[{"wid":1.0,"seqs":[2]}]`:         `want ",\"seqs\":["`,
		`[{"wid":1e3,"seqs":[2]}]`:         `want ",\"seqs\":["`,
		`[{"wid":01,"seqs":[2]}]`:          "leading zero",
		`[{"wid":"1","seqs":[2]}]`:         "want an unsigned integer",
		`[{"wid":18446744073709551616,"seqs":[2]}]`:   "overflows",
		`[{"wid":1,"seqs":2}]`:                        `want ",\"seqs\":["`,
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
	if got, err := DecodeIncidents([]byte(`[{"wid":18446744073709551615,"seqs":[0,18446744073709551615]}]`)); err != nil ||
		len(got) != 1 || got[0].WID() != 1<<64-1 || got[0].Last() != 1<<64-1 {
		t.Errorf("the widest numbers: %v, %v", got, err)
	}
}

// TestDecodeIncidentsSlabs: seqs are carved from a slab of shared blocks (of
// up to 4096 values); an incident that straddles a block boundary, or is
// larger than a block, must come out whole and must not disturb its
// neighbours.
func TestDecodeIncidentsSlabs(t *testing.T) {
	const block = 4096
	var incs []incident.Incident
	for wid := uint64(1); wid <= 3; wid++ {
		for _, n := range []int{block - 1, 3, 2*block + 5} {
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

// TestCutAndJoinLists: the byte operations the coordinator and its cache do
// on wire-form lists — cut after the n-th incident, list the wids, join the
// parts — equal encoding the incidents that result.
func TestCutAndJoinLists(t *testing.T) {
	incs := []incident.Incident{incident.New(1, 2), incident.New(1, 3, 4), incident.New(5, 1), incident.New(9, 7, 8, 9)}
	whole := AppendIncidents(nil, incs)
	for n := 0; n <= len(incs); n++ {
		if got, want := CutIncidents(whole, n), AppendIncidents(nil, incs[:n]); !bytes.Equal(got, want) {
			t.Errorf("CutIncidents(%d) = %s, want %s", n, got, want)
		}
	}
	if got := CutIncidents(whole, 1); &got[0] == &whole[0] {
		t.Error("CutIncidents aliases the list it cut")
	}
	if got := IncidentWIDs(whole); !slices.Equal(got, []uint64{1, 5, 9}) {
		t.Errorf("IncidentWIDs = %v", got)
	}
	for _, split := range [][]int{{0, 4}, {0, 2, 4}, {0, 1, 1, 3, 4, 4}} {
		var lists [][]byte
		for i := 1; i < len(split); i++ {
			lists = append(lists, AppendIncidents(nil, incs[split[i-1]:split[i]]))
		}
		if got := joinLists(lists); !bytes.Equal(got, whole) {
			t.Errorf("joinLists at %v = %s, want %s", split, got, whole)
		}
	}
	if got := joinLists(nil); string(got) != "[]" {
		t.Errorf("joinLists() = %s", got)
	}
}

// TestIncidentsInADocument: a reply's incidents array is read where it lies
// in the document — kept as the bytes it arrived as, not decoded — and a
// malformed one surfaces as ErrMalformedIncidents, whatever the envelope.
func TestIncidentsInADocument(t *testing.T) {
	array := `[{"wid":2,"seqs":[5,9]}]`
	for _, body := range []string{
		`{"worker":"w","wids_owned":1,"instances":1,"incidents":` + array + `,"elapsed_us":3}`,
		`{"incidents":` + array + `,"worker":"w","wids_owned":1,"elapsed_us":3,"instances":1}`,
		` { "worker" : "w" ,"wids_owned":1, "instances":1, "elapsed_us":3,` + "\n" + `"incidents":` + array + "\t}\n",
	} {
		resp, sum, err := parseReply([]byte(body), eval.ShapeIncidents)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if string(resp.Incidents) != array || resp.Worker != "w" || resp.WIDsOwned != 1 || resp.Instances != 1 || resp.ElapsedUS != 3 ||
			sum != (listSummary{n: 1, first: 2, last: 2}) {
			t.Errorf("%s: read %+v, %+v", body, resp, sum)
		}
	}
	for body, why := range map[string]string{
		`{"worker":"w","incidents":[{"wid":1,"seqs":[]}]}`:                          ErrMalformedIncidents.Error(),
		`{"worker":"w","incidents": []}`:                                            ErrMalformedIncidents.Error(),
		`{"worker":"w","incidents" :[]}`:                                            ErrMalformedIncidents.Error(),
		`{"worker":"w","incidents":[],"Incidents":[]}`:                              "second",
		`{"INCIDENTS":[],"worker":"w","incidents":[]}`:                              "second",
		`{"worker":"w","spans":{"name":"x","start_us":0,"attrs":{"incidents":[]}}}`: "not a member",
		`{"worker":"w","incidents":[],}`:                                            "not a member",
		`{,"incidents":[]}`:                                                         "not a member",
		`{"worker":"w" "incidents":[]}`:                                             "not a member",
		`{"worker":"w","incidents":[]`:                                              "not a member",
		`{"worker":"w","incidents":[]} {}`:                                          "decode worker response",
		`["incidents":[]]`:                                                          "not a member",
		`{"worker":"w","incid`:                                                      "decode worker response",
		`{"worker":7,"incidents":[]}`:                                               "decode worker response",
		`{"worker":"w","wids":"x","incidents":[]}`:                                  "decode worker response",
		`{"a":{"b":1,"incidents":[],"c":2}}`:                                        "decode worker response",
		`{"worker":"a,"incidents":[]}`:                                              "decode worker response",
		`{"worker":"w","x\"incidents":[]}`:                                          "not a member",
		`{"worker":"w","incidents":[{"wid":1,"seqs":[1]},{"wid":1,"seqs":[1]}]}`:    "canonical order",
		`{"worker":"w","incidents":[{"wid":1,"seqs":[1]}],"elapsed_us":1.5}`:        "decode worker response",
		`{"worker":"w","incidents":[{"wid":1,"seqs":[1]}]` + "\x00}":                "not a member",
		"{\"worker\":\"w\",\"incidents\":[{\"wid\":1,\"seqs\":[1]}]}\n\x00":         "decode worker response",
		`{"worker":"w","incidents":[{"wid":1,"seqs":[1]}],"elapsed_us":1,"x":[1,2]`: "decode worker response",
	} {
		_, _, err := parseReply([]byte(body), eval.ShapeIncidents)
		if err == nil || !strings.Contains(err.Error(), why) {
			t.Errorf("parseReply(%s): %v, want an error mentioning %q", body, err, why)
		}
	}
}

// FuzzIncidentCodec: the encoder is encoding/json's, byte for byte; decode
// inverts encode; and the decoder accepts a list exactly when its bytes are
// what AppendIncidents writes for the incidents encoding/json reads from
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
		enc := AppendIncidents(nil, incs)
		if !bytes.Equal(enc, want) {
			t.Fatalf("AppendIncidents = %s, encoding/json = %s", enc, want)
		}
		back, err := DecodeIncidents(enc)
		if err != nil || !equalIncidents(back, incs) {
			t.Fatalf("DecodeIncidents(%s) = %v, %v", enc, back, err)
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
		if err == nil && !bytes.Equal(AppendIncidents(nil, got), b) {
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
		if i > 0 && incident.New(docs[i-1].WID, docs[i-1].Seqs...).Compare(incident.New(d.WID, d.Seqs...)) >= 0 {
			return false
		}
	}
	return true
}

// FuzzWorkerReply: over any body and each mode the reader never panics, and
// what it accepts it reads as encoding/json reads the whole body — the same
// envelope, the same array bytes (incidents) or wids (instances), and the
// count and end wids of that array — where the incidents array is moreover
// the canonical wire form. The seeds are testdata/fuzz/FuzzWorkerReply.
func FuzzWorkerReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, mode uint8, body []byte) {
		shape := []eval.Shape{eval.ShapeIncidents, eval.ShapeInstances, eval.ShapeCount}[mode%3]
		resp, sum, err := parseReply(bytes.Clone(body), shape)
		if err != nil {
			return
		}
		// The reference: encoding/json reading the whole body.
		var ref WorkerQueryResponse
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("%v: read %q, encoding/json does not: %v", shape, body, err)
		}
		if !reflect.DeepEqual(resp.WorkerReplyHead, ref.WorkerReplyHead) || !reflect.DeepEqual(resp.WorkerReplyTail, ref.WorkerReplyTail) {
			t.Fatalf("%v: %q: envelope %+v %+v, encoding/json %+v %+v", shape, body,
				resp.WorkerReplyHead, resp.WorkerReplyTail, ref.WorkerReplyHead, ref.WorkerReplyTail)
		}
		var want listSummary
		switch shape {
		case eval.ShapeIncidents:
			if !bytes.Equal(resp.Incidents, ref.Incidents) || resp.WIDs != nil {
				t.Fatalf("%q: incidents %s (wids %v), encoding/json %s", body, resp.Incidents, resp.WIDs, ref.Incidents)
			}
			if resp.Incidents != nil {
				var docs []incidentDoc
				if err := json.Unmarshal(resp.Incidents, &docs); err != nil || !bytes.Equal(resp.Incidents, mustMarshal(t, docs)) || !isCanonical(docs) {
					t.Fatalf("%q: accepted incidents %s that are not the canonical wire form (%v)", body, resp.Incidents, err)
				}
				if n := len(docs); n > 0 {
					want = listSummary{n: n, first: docs[0].WID, last: docs[n-1].WID}
				}
			}
		case eval.ShapeInstances:
			if !slices.Equal(resp.WIDs, ref.WIDs) || resp.Incidents != nil || !slices.IsSorted(resp.WIDs) {
				t.Fatalf("%q: wids %v (incidents %s), encoding/json %v", body, resp.WIDs, resp.Incidents, ref.WIDs)
			}
			if n := len(resp.WIDs); n > 0 {
				want = listSummary{n: n, first: resp.WIDs[0], last: resp.WIDs[n-1]}
			}
		default:
			if resp.Incidents != nil || resp.WIDs != nil {
				t.Fatalf("%q: a count reply read with an array", body)
			}
		}
		if sum != want {
			t.Fatalf("%v: %q: summary %+v, want %+v", shape, body, sum, want)
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

// replyOf is a worker's incidents-mode reply around n incidents of two
// records each, over n/2 wids.
func replyOf(n int) (incs []incident.Incident, reply []byte) {
	incs = make([]incident.Incident, n)
	for i := range incs {
		incs[i] = incident.New(uint64(i/2+1), uint64(i%2+1), uint64(i%2+7))
	}
	reply = fmt.Appendf(nil, `{"worker":"http://w1","wids_owned":%d,"instances":%d,"incidents":`, n/2, n/2)
	reply = AppendIncidents(reply, incs)
	return incs, fmt.Appendf(reply, `,"elapsed_us":1234,"trace_id":"%032x","cost_table":[{"node":"A","operator":"atom","outputs":%d}]}`, 1, n)
}

// TestReadReplyAllocsDoNotGrowWithAnswer: reading a reply costs the buffer,
// the envelope and the scanner's two seqs buffers — the same number of
// allocations for a hundred incidents as for ten thousand, and never one per
// incident.
func TestReadReplyAllocsDoNotGrowWithAnswer(t *testing.T) {
	allocs := func(n int) float64 {
		_, reply := replyOf(n)
		return testing.AllocsPerRun(50, func() {
			resp, sum, err := readReply(bytes.NewReader(reply), int64(len(reply)), eval.ShapeIncidents)
			if err != nil || sum.n != n || len(resp.CostTable) != 1 {
				t.Fatalf("read %d: %+v, %v", n, sum, err)
			}
		})
	}
	small, large := allocs(100), allocs(10000)
	t.Logf("allocations per reply read: %.0f for 100 incidents, %.0f for 10000", small, large)
	// Measured on Go 1.24: 21 either way — the reader, the buffer, the reply,
	// the scanner's seqs buffers, and encoding/json's decoder state, strings
	// and cost row for the envelope's two sides. The bound leaves room for
	// another Go release's encoding/json.
	const bound = 24
	if large != small || large > bound {
		t.Errorf("reading a reply allocates %.0f times for 100 incidents, %.0f for 10000; want the same, at most %d", small, large, bound)
	}
}

// BenchmarkIncidentCodec prices the codec on a clinic-sized answer (10k
// incidents of two records), beside the reflect encoding it replaced and
// beside the same bytes travelling as a field of a document — and the
// coordinator's read of a worker's reply that carries them.
func BenchmarkIncidentCodec(b *testing.B) {
	incs, reply := replyOf(10000)
	enc := AppendIncidents(nil, incs)
	doc := mustMarshalB(b, WorkerQueryResponse{Incidents: enc})
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
			mustMarshalB(b, WorkerQueryResponse{Incidents: enc})
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
	b.Run("read-reply", func(b *testing.B) {
		b.SetBytes(int64(len(reply)))
		for i := 0; i < b.N; i++ {
			if _, _, err := readReply(bytes.NewReader(reply), int64(len(reply)), eval.ShapeIncidents); err != nil {
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
