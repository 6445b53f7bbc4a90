package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
)

// joined is an answer's lists as incident.AppendArray writes them: one list.
func joined(lists [][]byte) []byte {
	return bytes.Join(incident.AppendArray(nil, lists), nil)
}

// appendIncidents appends to dst the wire-form list the blocks concatenate
// to, written as a served scan writes one: incident.AppendWire over each
// block in turn, after an empty list.
func appendIncidents(dst []byte, blocks ...[]incident.Incident) []byte {
	dst = incident.AppendWire(dst, nil)
	for _, b := range blocks {
		dst = incident.AppendWire(dst, b)
	}
	return dst
}

// incidentDoc is what the codec replaced: the reflect-encoded wire form of
// one incident. The tests hold incident.AppendWire to it byte for byte, and
// the reply reader to it.
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
		"digits": {incident.New(99, 0, 1, 9, 10, 11, 42, 90, 99, 100, 101, 999), incident.New(100, 100)},
		"several": incident.NewSet(
			incident.New(7, 3), incident.New(7, 1, 2), incident.New(1, 10, 20, 30), incident.New(300, 4, 1000),
		).Incidents(),
	} {
		want, err := json.Marshal(fromIncidents(incs))
		if err != nil {
			t.Fatal(err)
		}
		got := appendIncidents(nil, incs)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: AppendWire = %s, encoding/json = %s", name, got, want)
		}
		if withPrefix := appendIncidents([]byte("x"), incs); string(withPrefix) != "x"+string(want) {
			t.Errorf("%s: AppendWire does not append: %s", name, withPrefix)
		}
		back, err := incident.DecodeIncidents(got)
		if err != nil || !equalIncidents(back, incs) {
			t.Errorf("%s: incident.DecodeIncidents(%s) = %v, %v", name, got, back, err)
		}
	}
}

// TestDecodeIncidentsRejectsOtherSpellings: a list encoding/json reads as
// the very incidents of the canonical bytes, spelled otherwise — indented,
// keys the other way round, space anywhere — is not the wire form, so it
// does not read: a coordinator splices what it reads as it stands.
func TestDecodeIncidentsRejectsOtherSpellings(t *testing.T) {
	canonical := appendIncidents(nil, []incident.Incident{incident.New(1, 2, 3), incident.New(2, 5)})
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
		got, err := incident.DecodeIncidents([]byte(in))
		if err == nil {
			t.Errorf("incident.DecodeIncidents(%q) = %v, want an error", in, got)
			continue
		}
		if !errors.Is(err, incident.ErrMalformedIncidents) || !strings.Contains(err.Error(), why) {
			t.Errorf("incident.DecodeIncidents(%q): %v, want ErrMalformedIncidents mentioning %q", in, err, why)
		}
	}
	if got, err := incident.DecodeIncidents([]byte("[]")); err != nil || len(got) != 0 {
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
		got, err := incident.DecodeIncidents([]byte(in))
		if err == nil {
			t.Errorf("incident.DecodeIncidents(%s) = %v, want an error", in, got)
			continue
		}
		if !errors.Is(err, incident.ErrMalformedIncidents) || !strings.Contains(err.Error(), why) {
			t.Errorf("incident.DecodeIncidents(%s): %v, want ErrMalformedIncidents mentioning %q", in, err, why)
		}
	}
	if got, err := incident.DecodeIncidents([]byte(`[{"wid":18446744073709551615,"seqs":[0,18446744073709551615]}]`)); err != nil ||
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
	got, err := incident.DecodeIncidents(appendIncidents(nil, incs))
	if err != nil || !equalIncidents(got, incs) {
		t.Fatalf("round trip across slab boundaries failed: %v", err)
	}
}

// TestIncidentListPrefixesAreRejected: the answer array's reader compares
// eight bytes in one load, and a load near the end of the bytes is where
// such a reader breaks. Every proper prefix of a worker reply in each mode,
// around numbers of 19 and 20 digits, is refused and never panics: a cut
// inside the answer array under ErrMalformedIncidents, a cut in the envelope
// by encoding/json.
func TestIncidentListPrefixesAreRejected(t *testing.T) {
	const (
		d19 = "1234567890123456789"
		d20 = "18446744073709551615" // the largest uint64
	)
	list := `[{"wid":` + d19 + `,"seqs":[1,` + d20 + `]},{"wid":` + d20 + `,"seqs":[` + d19 + `]},{"wid":` + d20 + `,"seqs":[` + d20 + `]}]`
	reply := &WorkerReply{Worker: "w", WIDsOwned: 3, Instances: 2, Count: 3, ElapsedUS: 1, Ops: []eval.NodeOps{{1, 0, 1, 1, 3, 3, 3}}}
	for _, c := range []struct {
		shape eval.Shape
		array string
	}{
		{eval.ShapeIncidents, list},
		{eval.ShapeInstances, "[" + d19 + "," + d20 + "]"},
		{eval.ShapeCount, ""},
	} {
		rec := httptest.NewRecorder()
		if err := WriteReply(rec, c.shape, [][]byte{[]byte(c.array)}, reply); err != nil {
			t.Fatal(err)
		}
		body := strings.TrimSuffix(rec.Body.String(), "\n")
		if _, _, err := parseReply([]byte(body), c.shape); err != nil {
			t.Fatalf("%v: parseReply(%s): %v", c.shape, body, err)
		}
		// The array and the comma and quote that open the envelope are the
		// scanner's to read.
		scanned := 0
		if c.array != "" {
			scanned = len(replyOpen[c.shape]) + len(c.array) + len(`,"`)
		}
		for n := range len(body) {
			_, _, err := parseReply([]byte(body)[:n], c.shape)
			if n < scanned && !errors.Is(err, incident.ErrMalformedIncidents) || n >= scanned && (err == nil || !strings.Contains(err.Error(), "decode worker response")) {
				t.Errorf("%v: parseReply(%s): %v", c.shape, body[:n], err)
			}
		}
	}

}

// TestCutAndJoinLists: the byte operations the query service does on an
// answer held as lists — a coordinator's parts', a single node's scan
// goroutines' — cut after the n-th incident, list the wids, write the lists
// as one and measure it, equal encoding the incidents that result, wherever
// the lists split the answer and whichever of them are empty.
func TestCutAndJoinLists(t *testing.T) {
	incs := []incident.Incident{incident.New(1, 2), incident.New(1, 3, 4), incident.New(5, 1), incident.New(9, 7, 8, 9)}
	whole := appendIncidents(nil, incs)
	for _, split := range [][]int{{0, 4}, {0, 2, 4}, {0, 1, 1, 3, 4, 4}, {0, 0, 4}, {0, 4, 4}} {
		var lists [][]byte
		for i := 1; i < len(split); i++ {
			lists = append(lists, appendIncidents(nil, incs[split[i-1]:split[i]]))
		}
		if got := joined(lists); !bytes.Equal(got, whole) || incident.ArrayLen(lists) != len(whole) {
			t.Errorf("AppendArray at %v = %s (ArrayLen %d), want %s", split, got, incident.ArrayLen(lists), whole)
		}
		if got := incident.IncidentWIDs(lists); !slices.Equal(got, []uint64{1, 5, 9}) {
			t.Errorf("IncidentWIDs at %v = %v", split, got)
		}
		for n := 0; n <= len(incs); n++ {
			cut := incident.CutIncidents(lists, n)
			if got, want := joined(cut), appendIncidents(nil, incs[:n]); !bytes.Equal(got, want) {
				t.Errorf("incident.CutIncidents(%v, %d) = %s, want %s", split, n, got, want)
			}
			for i, l := range cut {
				if i < len(lists) && &l[0] == &lists[i][0] && len(l) != len(lists[i]) {
					t.Errorf("incident.CutIncidents(%v, %d) aliases the list it cut", split, n)
				}
			}
		}
	}
	if got := joined(nil); string(got) != "[]" {
		t.Errorf("incident.AppendArray() = %s", got)
	}
}

// TestIncidentsInADocument: a reply is read in its one layout — the answer
// array first, kept as the bytes it arrived as (incidents) and not decoded
// by encoding/json, then the envelope — and anything else, a malformed array
// or an answer member in the envelope included, is an error.
func TestIncidentsInADocument(t *testing.T) {
	const env = `"worker":"w","wids_owned":1,"instances":1,"count":1,"elapsed_us":3}` + "\n"
	for _, c := range []struct {
		shape eval.Shape
		body  string
	}{
		{eval.ShapeIncidents, `{"incidents":[{"wid":2,"seqs":[5,9]}],` + env},
		{eval.ShapeInstances, `{"wids":[2],` + env},
		{eval.ShapeCount, `{` + env},
	} {
		resp, sum, err := parseReply([]byte(c.body), c.shape)
		if err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		want := incident.ListSummary{N: 1, First: 2, Last: 2}
		if c.shape == eval.ShapeCount {
			want = incident.ListSummary{}
		}
		if !reflect.DeepEqual(resp.WorkerReply, WorkerReply{Worker: "w", WIDsOwned: 1, Instances: 1, Count: 1, ElapsedUS: 3}) || sum != want ||
			(c.shape == eval.ShapeIncidents) != (string(resp.Incidents) == `[{"wid":2,"seqs":[5,9]}]`) ||
			(c.shape == eval.ShapeInstances) != slices.Equal(resp.WIDs, []uint64{2}) {
			t.Errorf("%s: read %+v, %+v", c.body, resp, sum)
		}
	}
	for _, c := range []struct {
		shape     eval.Shape
		body, why string
	}{
		{eval.ShapeIncidents, `{"incidents":[{"wid":1,"seqs":[]}],"worker":"w"}`, "empty incident"},
		{eval.ShapeIncidents, `{"incidents":[{"wid":1,"seqs":[1]},{"wid":1,"seqs":[1]}],"worker":"w"}`, "canonical order"},
		{eval.ShapeIncidents, `{"worker":"w","incidents":[]}`, "does not open with"},
		{eval.ShapeIncidents, `{"incidents": [],"worker":"w"}`, `want "["`},
		{eval.ShapeIncidents, ` {"incidents":[],"worker":"w"}`, "does not open with"},
		{eval.ShapeIncidents, `{"wids":[],"worker":"w"}`, "does not open with"},
		{eval.ShapeIncidents, `{"incidents":[]}`, incident.ErrMalformedIncidents.Error()},
		{eval.ShapeIncidents, `{"incidents":[],}`, incident.ErrMalformedIncidents.Error()},
		{eval.ShapeIncidents, `{"incidents":[], "worker":"w"}`, incident.ErrMalformedIncidents.Error()},
		{eval.ShapeIncidents, `{"incidents":[],"worker":"w","Incidents":[]}`, "envelope"},
		{eval.ShapeIncidents, `{"incidents":[],"INCIDENTS":null,"worker":"w"}`, "envelope"},
		{eval.ShapeIncidents, `{"incidents":[],"worker":"w","wids":[1]}`, "envelope"},
		{eval.ShapeIncidents, `{"incidents":[],"worker":"w"`, "decode worker response"},
		{eval.ShapeIncidents, `{"incidents":[],"worker":"w"} {}`, "decode worker response"},
		{eval.ShapeIncidents, `{"incidents":[],"worker":7}`, "decode worker response"},
		{eval.ShapeIncidents, `{"incidents":[],"worker":"w","elapsed_us":1.5}`, "decode worker response"},
		{eval.ShapeIncidents, `{"incidents":[],"worker":"w","count":null,"x":[1,2]`, "decode worker response"},
		{eval.ShapeIncidents, "{\"incidents\":[{\"wid\":1,\"seqs\":[1]}],\"worker\":\"w\"}\n\x00", "decode worker response"},
		{eval.ShapeInstances, `{"worker":"w","count":1,"wids":[2]}`, "does not open with"},
		{eval.ShapeInstances, `{"wids":[3,2],"worker":"w"}`, "not ascending"},
		{eval.ShapeInstances, `{"wids":[2],"worker":"w","WIDS":[2]}`, "envelope"},
		{eval.ShapeCount, `{"worker":"w","incidents":[{"wid":1,"seqs":[1]}]}`, "envelope"},
		{eval.ShapeCount, `{"worker":"w","count":1,"wids":[]}`, "envelope"},
		{eval.ShapeCount, `{"worker":"w","count":"1"}`, "decode worker response"},
	} {
		_, _, err := parseReply([]byte(c.body), c.shape)
		if err == nil || !strings.Contains(err.Error(), c.why) {
			t.Errorf("%v: parseReply(%s): %v, want an error mentioning %q", c.shape, c.body, err, c.why)
		}
	}
}

// TestWorkerReplyFromLists: a worker writes its answer as the lists its scan
// left — one per goroutine, some of them empty — and the reply is the bytes
// of the one-list write, which the coordinator reads back as the same
// answer: the same array, summary and envelope. FuzzWorkerReply's seed
// incidents_three_lists is that reply.
func TestWorkerReplyFromLists(t *testing.T) {
	incs := []incident.Incident{incident.New(2, 1, 5), incident.New(2, 3, 4), incident.New(7, 9), incident.New(9, 1)}
	reply := &WorkerReply{Worker: "w", WIDsOwned: 9, Instances: 9, Count: len(incs), ElapsedUS: 1, Ops: []eval.NodeOps{{1, 0, 1, 1, 4, 4, 4}}}
	write := func(lists ...[]byte) []byte {
		rec := httptest.NewRecorder()
		if err := WriteReply(rec, eval.ShapeIncidents, lists, reply); err != nil {
			t.Fatal(err)
		}
		if n := rec.Header().Get("Content-Length"); n != fmt.Sprint(rec.Body.Len()) {
			t.Fatalf("Content-Length %s for a body of %d bytes", n, rec.Body.Len())
		}
		return rec.Body.Bytes()
	}
	one := write(incident.AppendWire(nil, incs))
	three := write(incident.AppendWire(nil, incs[:2]), incident.AppendWire(nil, nil), incident.AppendWire(nil, incs[2:]))
	if !bytes.Equal(three, one) {
		t.Fatalf("a reply from three lists is\n%s\nfrom one\n%s", three, one)
	}
	seed, err := os.ReadFile("testdata/fuzz/FuzzWorkerReply/incidents_three_lists")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(seed), "[]byte("+strconv.Quote(string(three))+")\n") {
		t.Errorf("the seed incidents_three_lists is\n%s\nnot the reply\n%s", seed, three)
	}
	resp, sum, err := parseReply(bytes.Clone(three), eval.ShapeIncidents)
	if err != nil || sum != (incident.ListSummary{N: 4, First: 2, Last: 9}) || !bytes.Equal(resp.Incidents, incident.AppendWire(nil, incs)) ||
		!reflect.DeepEqual(resp.WorkerReply, *reply) {
		t.Errorf("read back %+v, %+v, %v", resp, sum, err)
	}
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
		if !reflect.DeepEqual(resp.WorkerReply, ref.WorkerReply) {
			t.Fatalf("%v: %q: envelope %+v, encoding/json %+v", shape, body, resp.WorkerReply, ref.WorkerReply)
		}
		var want incident.ListSummary
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
					want = incident.ListSummary{N: n, First: docs[0].WID, Last: docs[n-1].WID}
				}
			}
		case eval.ShapeInstances:
			if !slices.Equal(resp.WIDs, ref.WIDs) || resp.Incidents != nil || !slices.IsSorted(resp.WIDs) {
				t.Fatalf("%q: wids %v (incidents %s), encoding/json %v", body, resp.WIDs, resp.Incidents, ref.WIDs)
			}
			if n := len(resp.WIDs); n > 0 {
				want = incident.ListSummary{N: n, First: resp.WIDs[0], Last: resp.WIDs[n-1]}
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
	reply = incident.AppendWire([]byte(`{"incidents":`), incs)
	return incs, fmt.Appendf(reply, `,"worker":"http://w1","wids_owned":%d,"instances":%d,"count":%d,"elapsed_us":1234,"prepare_us":34,"eval_us":1100,"ops":[[%d,0,0,0,%d,%d,%d]]}`,
		n/2, n/2, n, n/2, n, n, n)
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
			if err != nil || sum.N != n || len(resp.Ops) != 1 {
				t.Fatalf("read %d: %+v, %v", n, sum, err)
			}
		})
	}
	small, large := allocs(100), allocs(10000)
	t.Logf("allocations per reply read: %.0f for 100 incidents, %.0f for 10000", small, large)
	// Measured on Go 1.24: 14 either way — the reader, the buffer, the reply,
	// the scanner's seqs buffers, and encoding/json's decoder state, strings
	// and ops rows for the envelope, decoded in one piece. The bound leaves
	// room for another Go release's encoding/json.
	const bound = 17
	if large != small || large > bound {
		t.Errorf("reading a reply allocates %.0f times for 100 incidents, %.0f for 10000; want the same, at most %d", small, large, bound)
	}
}

// BenchmarkReadReply prices the coordinator's read of a worker's reply
// around a clinic-sized answer (10k incidents of two records), beside the
// same array travelling as a field of a document encoding/json writes.
func BenchmarkReadReply(b *testing.B) {
	incs, reply := replyOf(10000)
	enc := incident.AppendWire(nil, incs)
	doc := mustMarshalB(b, WorkerQueryResponse{Incidents: enc})
	b.Run("document", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			mustMarshalB(b, WorkerQueryResponse{Incidents: enc})
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
