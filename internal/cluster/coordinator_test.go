package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
)

func testWIDs(n int) []uint64 {
	wids := make([]uint64, n)
	for i := range wids {
		wids[i] = uint64(i + 1)
	}
	return wids
}

// ownedWIDs is a worker's side of placement: the members of its copy of the
// log inside the request's interval.
func ownedWIDs(wids []uint64, req WorkerQueryRequest) []uint64 {
	var owned []uint64
	for _, wid := range wids {
		if wid >= *req.WIDMin && wid <= *req.WIDMax {
			owned = append(owned, wid)
		}
	}
	return owned
}

// writeReply answers req with WriteReply around the given answer array,
// under an honest member count and the given incident count. The envelope
// carries no counters and always encodes.
func writeReply(w http.ResponseWriter, req WorkerQueryRequest, owned, count int, array string) {
	shape, _ := eval.ParseShape(req.Mode)
	WriteReply(w, shape, [][]byte{[]byte(array)}, &WorkerReply{Worker: req.Self, WIDsOwned: owned, Instances: owned, Count: count, ElapsedUS: 1})
}

// shapedReplyBody is the reply in the request's mode: the incidents, or
// their number with, in mode "instances", the wids they lie in.
func shapedReplyBody(req WorkerQueryRequest, owned int, incs []incident.Incident) string {
	array := ""
	switch req.Mode {
	case "count":
	case "instances":
		wids, _ := json.Marshal(append([]uint64{}, incident.MergeSorted(incs).WIDs()...))
		array = string(wids)
	default:
		array = string(incident.AppendWire(nil, incs))
	}
	rec := httptest.NewRecorder()
	writeReply(rec, req, owned, len(incs), array)
	return rec.Body.String()
}

// fakeWorker answers POST /v1/worker/query in incidents mode with
// incidents(owned) in a well-formed reply — the member count the coordinator
// cross-checks included, and a count of one per incident the array opens —
// and counts the requests it served.
func fakeWorker(t *testing.T, wids []uint64, incidents func(owned []uint64) string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		var req WorkerQueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		owned := ownedWIDs(wids, req)
		array := incidents(owned)
		writeReply(w, req, len(owned), strings.Count(array, "{"), array)
	}))
	t.Cleanup(ts.Close)
	return ts, &served
}

// oneIncidentPerWID is an honest worker's answer: {wid, [1,2]} per owned wid.
func oneIncidentPerWID(owned []uint64) string {
	incs := make([]incident.Incident, len(owned))
	for i, wid := range owned {
		incs[i] = incident.New(wid, 1, 2)
	}
	return string(incident.AppendWire(nil, incs))
}

// TestMalformedWorkerReplyLosesThePart: anything can answer on a worker
// port. A reply whose incidents break Definition 4 — no records, a repeated
// record, records out of order — used to panic in incident.New on a gather
// goroutine and take the coordinator down; now it is a failed part, named in
// the completeness, and not retried (the same reply would come back).
func TestMalformedWorkerReplyLosesThePart(t *testing.T) {
	wids := testWIDs(64)
	for name, seqs := range map[string]string{"empty": "[]", "duplicate": "[3,3]", "decreasing": "[5,2]"} {
		t.Run(name, func(t *testing.T) {
			good, _ := fakeWorker(t, wids, oneIncidentPerWID)
			bad, badServed := fakeWorker(t, wids, func(owned []uint64) string {
				return fmt.Sprintf(`[{"wid":%d,"seqs":%s}]`, owned[0], seqs)
			})
			c, err := New(Config{
				Workers:     []string{good.URL, bad.URL},
				MaxAttempts: 3, Sleep: func(time.Duration) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			asn := Partition(wids, 2)
			set, comp, fan, err := c.Execute(context.Background(), "log", pattern.MustParse("A -> B"), ExecOptions{WIDs: wids}, nil)
			if err != nil {
				t.Fatalf("one malformed reply failed the whole query: %v", err)
			}
			if set.Len() != len(asn[0].WIDs) {
				t.Errorf("merged %d incidents, the good worker sent %d", set.Len(), len(asn[0].WIDs))
			}
			if comp.Complete || comp.Failed != 1 || comp.ExcludedWIDs != len(asn[1].WIDs) || len(comp.Failures) != 1 {
				t.Fatalf("completeness = %+v, want exactly the bad worker's %d wids lost", comp, len(asn[1].WIDs))
			}
			lost := comp.Failures[0]
			if lost.Worker != bad.URL || !strings.Contains(lost.Cause, incident.ErrMalformedIncidents.Error()) {
				t.Errorf("lost part = %+v, want %s with a malformed-incidents cause", lost, bad.URL)
			}
			if lost.Attempts != 1 || badServed.Load() != 1 || fan.Retries != 0 {
				t.Errorf("malformed reply was retried: attempts %d, requests served %d, retries %d",
					lost.Attempts, badServed.Load(), fan.Retries)
			}
		})
	}
}

// TestCoordinatorLosesAnIndentedReply: a reply has one layout, and its
// incidents array one spelling, the one the coordinator splices into its
// answer as it stands. A worker that indents the array sends the same
// incidents in other bytes, and one that spaces the envelope or puts the
// array among its members sends the same document in another layout; each
// part is lost, named and not retried, like any other malformed reply.
func TestCoordinatorLosesAnIndentedReply(t *testing.T) {
	wids := testWIDs(18)
	good, _ := fakeWorker(t, wids, oneIncidentPerWID)
	indented, indentedServed := fakeWorker(t, wids, func(owned []uint64) string {
		var buf bytes.Buffer
		if err := json.Indent(&buf, []byte(oneIncidentPerWID(owned)), "  ", "  "); err != nil {
			t.Error(err)
		}
		return buf.String()
	})
	var spacedServed atomic.Int64
	spaced := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spacedServed.Add(1)
		var req WorkerQueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		owned := ownedWIDs(wids, req)
		fmt.Fprintf(w, "{ \"instances\" : %d,\n \"worker\":%q ,\"incidents\":%s ,\n\t\"wids_owned\": %d, \"count\": %d }\n",
			len(owned), req.Self, oneIncidentPerWID(owned), len(owned), len(owned))
	}))
	t.Cleanup(spaced.Close)
	c, err := New(Config{Workers: []string{good.URL, spaced.URL, indented.URL}, MaxAttempts: 3, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	set, comp, _, err := c.Execute(context.Background(), "log", pattern.MustParse("A -> B"), ExecOptions{WIDs: wids}, nil)
	if err != nil || comp.Complete || comp.Failed != 2 || set.Len() != len(wids)/3 {
		t.Fatalf("set %v, completeness %+v, err %v; want the good worker's third and the other two parts lost", set, comp, err)
	}
	for i, lost := range comp.Failures {
		worker, served := []string{spaced.URL, indented.URL}[i], []*atomic.Int64{&spacedServed, indentedServed}[i]
		if lost.Worker != worker || lost.Attempts != 1 || served.Load() != 1 || !strings.Contains(lost.Cause, incident.ErrMalformedIncidents.Error()) {
			t.Errorf("lost part %+v after %d requests, want %s's, once, as malformed", lost, served.Load(), worker)
		}
	}
}

// stubFleet is a worker fleet behind cluster.Config.Transport, no sockets:
// every worker holds wids and answers, in the request's mode, one incident
// per member of the requested interval, after tamper has had its way with
// the raw request and the answer. replies, when non-nil, records each
// worker's reply body.
type stubFleet struct {
	wids    []uint64
	tamper  func(raw []byte, req WorkerQueryRequest, incs []incident.Incident)
	replies *sync.Map
}

func (f stubFleet) RoundTrip(r *http.Request) (*http.Response, error) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	var req WorkerQueryRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, err
	}
	owned := ownedWIDs(f.wids, req)
	incs := make([]incident.Incident, len(owned))
	for i, wid := range owned {
		incs[i] = incident.New(wid, 1, 2)
	}
	f.tamper(raw, req, incs)
	body := shapedReplyBody(req, len(owned), incs)
	if f.replies != nil {
		f.replies.Store(req.Self, body)
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(body))}, nil
}

// TestClusterReplyOutsideIntervalLosesThePart: the merge concatenates the
// parts' answers, so a 200 whose incidents — canonical, and under an honest
// member count — reach outside the part's interval would come out mis-ordered
// or twice. The coordinator's end-incident check turns it into a malformed
// reply instead: the part is lost and named by its exact interval, unretried.
func TestClusterReplyOutsideIntervalLosesThePart(t *testing.T) {
	wids := testWIDs(64)
	const bad = "http://w2"
	// Each swaps an end incident for one just past that end: still canonical,
	// still one per member.
	for name, stray := range map[string]func(WorkerQueryRequest, []incident.Incident){
		"below": func(req WorkerQueryRequest, incs []incident.Incident) {
			incs[0] = incident.New(*req.WIDMin-1, 1, 2)
		},
		"above": func(req WorkerQueryRequest, incs []incident.Incident) {
			incs[len(incs)-1] = incident.New(*req.WIDMax+1, 1, 2)
		},
	} {
		t.Run(name, func(t *testing.T) {
			var badServed atomic.Int64
			c, err := New(Config{
				Workers:     []string{"http://w1", bad, "http://w3"},
				MaxAttempts: 3, Sleep: func(time.Duration) {},
				Transport: stubFleet{wids, func(_ []byte, req WorkerQueryRequest, incs []incident.Incident) {
					if req.Self == bad {
						badServed.Add(1)
						stray(req, incs)
					}
				}, nil},
			})
			if err != nil {
				t.Fatal(err)
			}
			set, comp, fan, err := c.Execute(context.Background(), "log", pattern.MustParse("A -> B"), ExecOptions{WIDs: wids}, nil)
			if err != nil {
				t.Fatalf("one stray reply failed the whole query: %v", err)
			}
			part := Partition(wids, 3)[1]
			if comp.Complete || comp.Failed != 1 || comp.ExcludedWIDs != len(part.WIDs) || len(comp.Failures) != 1 {
				t.Fatalf("completeness = %+v, want exactly the stray worker's part lost", comp)
			}
			lost := comp.Failures[0]
			if lost.Worker != bad || lost.WIDMin != part.MinWID || lost.WIDMax != part.MaxWID || lost.WIDs != len(part.WIDs) {
				t.Errorf("lost part = %+v, want %s with wids %d–%d", lost, bad, part.MinWID, part.MaxWID)
			}
			if !strings.Contains(lost.Cause, incident.ErrMalformedIncidents.Error()) {
				t.Errorf("cause %q does not call the reply malformed", lost.Cause)
			}
			if lost.Attempts != 1 || badServed.Load() != 1 || fan.Retries != 0 {
				t.Errorf("stray reply was retried: attempts %d, requests served %d, retries %d",
					lost.Attempts, badServed.Load(), fan.Retries)
			}
			// What was merged is the other two parts, in canonical order.
			want := append(append([]uint64(nil), wids[:part.MinWID-1]...), wids[part.MaxWID:]...)
			if got := set.WIDs(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("merged wids %v, want %v", got, want)
			}
		})
	}
}

// TestClusterWorkerRequestCarriesTheInterval: the wire names a part by its
// closed interval — over a gapped numbering, the part's own first and last
// member — and by nothing else: no membership list, no replica count, no
// per-operator cap.
func TestClusterWorkerRequestCarriesTheInterval(t *testing.T) {
	wids := []uint64{3, 4, 9, 20, 21}
	var mu sync.Mutex
	bodies := make(map[string]map[string]any)
	var replies sync.Map
	c, err := New(Config{
		Workers: []string{"http://w1", "http://w2"},
		Transport: stubFleet{wids, func(raw []byte, req WorkerQueryRequest, _ []incident.Incident) {
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Error(err)
			}
			mu.Lock()
			bodies[req.Self] = doc
			mu.Unlock()
		}, &replies},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := pattern.MustParse("A -> B")
	set, comp, _, err := c.Execute(context.Background(), "log", plan, ExecOptions{WIDs: wids}, nil)
	if err != nil || !comp.Complete || set.Len() != len(wids) {
		t.Fatalf("set %v, completeness %+v, err %v", set, comp, err)
	}
	for worker, want := range map[string][2]float64{"http://w1": {3, 9}, "http://w2": {20, 21}} {
		b := bodies[worker]
		if b["wid_min"] != want[0] || b["wid_max"] != want[1] || b["mode"] != "incidents" {
			t.Errorf("%s asked for %v–%v in mode %v, want %v–%v in mode incidents", worker, b["wid_min"], b["wid_max"], b["mode"], want[0], want[1])
		}
		for _, gone := range []string{"ring", "replicas", "limit"} {
			if _, ok := b[gone]; ok {
				t.Errorf("%s request still carries %q", worker, gone)
			}
		}
	}

	// The mode rides the wire, and a summary comes back as one: a count
	// reply carries a number and no array, an instances reply wids and no
	// incident, and the coordinator adds and concatenates them.
	for _, shape := range []eval.Shape{eval.ShapeCount, eval.ShapeInstances} {
		var qs eval.QueryStats
		a, comp, fan, err := c.Answer(context.Background(), "log", plan, shape, ExecOptions{WIDs: wids}, &qs)
		if err != nil || !comp.Complete || a.Count != len(wids) || a.Wire != nil || qs.Incidents != len(wids) {
			t.Fatalf("%v: answer %+v, completeness %+v, stats %+v, err %v", shape, a, comp, qs, err)
		}
		if shape == eval.ShapeInstances && !slices.Equal(a.WIDs, wids) {
			t.Errorf("merged wids %v, want %v", a.WIDs, wids)
		}
		if shape == eval.ShapeCount && a.WIDs != nil {
			t.Errorf("a count came with wids %v", a.WIDs)
		}
		for i, worker := range []string{"http://w1", "http://w2"} {
			if got := bodies[worker]["mode"]; got != shape.String() {
				t.Errorf("%s was asked in mode %v, want %v", worker, got, shape)
			}
			reply, _ := replies.Load(worker)
			if body := reply.(string); strings.Contains(body, "incidents") || strings.Contains(body, `"wids":`) != (shape == eval.ShapeInstances) || len(body) > 400 {
				t.Errorf("%s answered a %v request with %s", worker, shape, body)
			}
			if fan.PerWorker[i].Incidents != []int{3, 2}[i] {
				t.Errorf("%s: call reports %d incidents", worker, fan.PerWorker[i].Incidents)
			}
		}
	}
}

// TestClusterHeadFirstReplyLosesThePart: a worker from an older release
// writes the answer array among the envelope's members — after some of them,
// as the release before writes "incidents" and "instances" replies, or, from
// before the request's mode field, as incidents with no count whatever the
// mode. In every mode its part is lost, once and unretried, under the
// completeness contract — never read into a count the coordinator made up.
// (A count reply of the release before has no array and is this layout
// already.)
func TestClusterHeadFirstReplyLosesThePart(t *testing.T) {
	wids := testWIDs(12)
	for shape, headFirst := range map[eval.Shape]string{
		eval.ShapeIncidents: `{"worker":%q,"wids_owned":%d,"instances":%[2]d,"incidents":%[3]s,"elapsed_us":1}`,
		eval.ShapeInstances: `{"worker":%q,"wids_owned":%d,"instances":%[2]d,"count":%[2]d,"wids":%[4]s,"elapsed_us":1}`,
		eval.ShapeCount:     `{"worker":%q,"wids_owned":%d,"instances":%[2]d,"incidents":%[3]s,"elapsed_us":1}`,
	} {
		t.Run(shape.String(), func(t *testing.T) {
			current := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var req WorkerQueryRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				owned := ownedWIDs(wids, req)
				incs := make([]incident.Incident, len(owned))
				for i, wid := range owned {
					incs[i] = incident.New(wid, 1, 2)
				}
				io.WriteString(w, shapedReplyBody(req, len(owned), incs))
			}))
			t.Cleanup(current.Close)
			var oldServed atomic.Int64
			old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				oldServed.Add(1)
				var req WorkerQueryRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				owned := ownedWIDs(wids, req)
				list, _ := json.Marshal(owned)
				fmt.Fprintf(w, headFirst, req.Self, len(owned), oneIncidentPerWID(owned), list)
			}))
			t.Cleanup(old.Close)
			c, err := New(Config{
				Workers:     []string{current.URL, old.URL},
				MaxAttempts: 3, Sleep: func(time.Duration) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			a, comp, _, err := c.Answer(context.Background(), "log", pattern.MustParse("A -> B"), shape, ExecOptions{WIDs: wids}, nil)
			if err != nil || comp.Complete || comp.Failed != 1 || a.Count != 6 {
				t.Fatalf("answer %+v, completeness %+v, err %v; want the current worker's 6 and one part lost", a, comp, err)
			}
			if lost := comp.Failures[0]; lost.Worker != old.URL || lost.Attempts != 1 || oldServed.Load() != 1 || !strings.Contains(lost.Cause, incident.ErrMalformedIncidents.Error()) {
				t.Errorf("lost part %+v after %d requests, want the old worker's, once, as malformed", lost, oldServed.Load())
			}
		})
	}
}

// TestClusterReplyCountDisagreesLosesThePart: an incidents reply carries
// its count beside the array, and the two must agree — a reply that says
// more or fewer incidents than it holds is malformed, its part lost and not
// retried, whichever of the two is wrong.
func TestClusterReplyCountDisagreesLosesThePart(t *testing.T) {
	wids := testWIDs(12)
	for name, skew := range map[string]int{"more": 1, "fewer": -1} {
		t.Run(name, func(t *testing.T) {
			good, _ := fakeWorker(t, wids, oneIncidentPerWID)
			var liarServed atomic.Int64
			liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				liarServed.Add(1)
				var req WorkerQueryRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				owned := ownedWIDs(wids, req)
				writeReply(w, req, len(owned), len(owned)+skew, oneIncidentPerWID(owned))
			}))
			t.Cleanup(liar.Close)
			c, err := New(Config{Workers: []string{good.URL, liar.URL}, MaxAttempts: 3, Sleep: func(time.Duration) {}})
			if err != nil {
				t.Fatal(err)
			}
			a, comp, fan, err := c.Answer(context.Background(), "log", pattern.MustParse("A -> B"), eval.ShapeIncidents, ExecOptions{WIDs: wids}, nil)
			if err != nil || comp.Complete || comp.Failed != 1 || a.Count != 6 || bytes.Count(joined(a.Wire), []byte("{")) != 6 {
				t.Fatalf("answer %+v, completeness %+v, err %v; want the good worker's 6 and one part lost", a, comp, err)
			}
			lost := comp.Failures[0]
			if lost.Worker != liar.URL || !strings.Contains(lost.Cause, incident.ErrMalformedIncidents.Error()) {
				t.Errorf("lost part %+v, want %s with a malformed-incidents cause", lost, liar.URL)
			}
			if lost.Attempts != 1 || liarServed.Load() != 1 || fan.Retries != 0 {
				t.Errorf("a reply whose count disagrees was retried: attempts %d, requests served %d, retries %d",
					lost.Attempts, liarServed.Load(), fan.Retries)
			}
		})
	}
}

func TestClusterRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&WorkerHTTPError{Status: http.StatusInternalServerError}, true},
		{&WorkerHTTPError{Status: http.StatusBadGateway}, true},
		{&WorkerHTTPError{Status: http.StatusGatewayTimeout}, true},
		{&WorkerHTTPError{Status: http.StatusTooManyRequests}, true},
		// Deterministic replies: retrying re-fails identically.
		{&WorkerHTTPError{Status: http.StatusBadRequest}, false},
		{&WorkerHTTPError{Status: http.StatusNotFound}, false},
		{&WorkerHTTPError{Status: http.StatusUnprocessableEntity}, false},
		{nonRetryable(errors.New("placement mismatch")), false},
		// Transport-level failures are transient by default.
		{errors.New("connection refused"), true},
		{fmt.Errorf("wrapped: %w", &WorkerHTTPError{Status: 503}), true},
		{fmt.Errorf("wrapped: %w", nonRetryable(errors.New("x"))), false},
	}
	for _, tc := range cases {
		if got := retryableErr(tc.err); got != tc.want {
			t.Errorf("retryableErr(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestClusterNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no workers succeeded")
	}
	if _, err := New(Config{Workers: []string{"http://w1", "http://w1"}}); err == nil {
		t.Fatal("New with duplicate workers succeeded")
	}
	if _, err := New(Config{Workers: []string{"http://w1", ""}}); err == nil {
		t.Fatal("New with empty worker URL succeeded")
	}
	c, err := New(Config{Workers: []string{"http://w1", "http://w2"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Health()); got != 2 {
		t.Fatalf("fleet has %d workers, want 2", got)
	}
}

// TestClusterFleetMeterAddsMatchingOps: the fleet meter is the sum of the
// merged replies' counters. A reply whose ops have another length than the
// plan has nodes — metered over another plan — is merged as an answer, but
// its counters are left out rather than mis-added.
func TestClusterFleetMeterAddsMatchingOps(t *testing.T) {
	wids := testWIDs(8)
	plan := pattern.MustParse("A -> B")
	worker := func(ops []eval.NodeOps) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req WorkerQueryRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			owned := len(ownedWIDs(wids, req))
			WriteReply(w, eval.ShapeCount, nil, &WorkerReply{Worker: req.Self, WIDsOwned: owned, Instances: owned, Ops: ops})
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	row := eval.NodeOps{4, 0, 4, 4, 16, 8, 16}
	c, err := New(Config{Workers: []string{worker([]eval.NodeOps{row, row, row}), worker([]eval.NodeOps{row})}})
	if err != nil {
		t.Fatal(err)
	}
	meter := eval.NewMeter(plan)
	_, comp, _, err := c.Answer(context.Background(), "l", plan, eval.ShapeCount, ExecOptions{WIDs: wids, Meter: meter}, nil)
	if err != nil || !comp.Complete {
		t.Fatalf("answer: %v, completeness %+v", err, comp)
	}
	if got := meter.Ops(); !slices.Equal(got, []eval.NodeOps{row, row, row}) {
		t.Fatalf("fleet meter %v, want the matching reply's counters alone", got)
	}
}

// answerFleet starts two workers over wids 1..2n that answer an incidents
// request for their part with one incident of two records per wid, n
// incidents each, in a reply made once. It returns a coordinator over them,
// the wids, and the two replies' summed length.
func answerFleet(tb testing.TB, n int) (*Coordinator, []uint64, int) {
	tb.Helper()
	wids := testWIDs(2 * n)
	var urls []string
	size := 0
	for _, p := range Partition(wids, 2) {
		incs := make([]incident.Incident, len(p.WIDs))
		for i, wid := range p.WIDs {
			incs[i] = incident.New(wid, 1, 7)
		}
		var reply []byte
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Length", fmt.Sprint(len(reply)))
			w.Write(reply)
		}))
		tb.Cleanup(ts.Close)
		rec := httptest.NewRecorder()
		if err := WriteReply(rec, eval.ShapeIncidents, [][]byte{incident.AppendWire(nil, incs)}, &WorkerReply{
			Worker: ts.URL, WIDsOwned: len(p.WIDs), Instances: len(p.WIDs), Count: len(incs)}); err != nil {
			tb.Fatal(err)
		}
		reply = rec.Body.Bytes()
		size += len(reply)
		urls = append(urls, ts.URL)
	}
	c, err := New(Config{Workers: urls})
	if err != nil {
		tb.Fatal(err)
	}
	return c, wids, size
}

// TestCoordinatorAnswerCopiesOnce: a coordinator copies each byte of its
// workers' answers once, as it reads a reply, and answers with the parts'
// arrays as they arrived. So an incidents Answer over two workers of 5,000
// incidents each allocates about the replies' bytes, plus the requests and
// envelopes; a second copy of the arrays would double it.
func TestCoordinatorAnswerCopiesOnce(t *testing.T) {
	const n = 5000
	c, wids, size := answerFleet(t, n)
	plan := pattern.MustParse("A -> B")
	answer := func() eval.Answer {
		res, comp, _, err := c.Answer(context.Background(), "log", plan, eval.ShapeIncidents, ExecOptions{WIDs: wids}, nil)
		if err != nil || !comp.Complete || res.Count != 2*n || len(res.Wire) != 2 {
			t.Fatalf("answer of %d in %d lists, completeness %+v, err %v", res.Count, len(res.Wire), comp, err)
		}
		return res
	}
	want := make([]incident.Incident, len(wids))
	for i, wid := range wids {
		want[i] = incident.New(wid, 1, 7)
	}
	if got := joined(answer().Wire); !bytes.Equal(got, incident.AppendWire(nil, want)) {
		t.Fatalf("the answer's lists write as %.80s…, want one incident per wid", got)
	}
	// The least of single runs: under the race detector sync.Pool drops
	// items at random, which costs a run a transport buffer now and then.
	perAnswer := math.Inf(1)
	for range 21 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		answer()
		runtime.ReadMemStats(&after)
		perAnswer = min(perAnswer, float64(after.TotalAlloc-before.TotalAlloc))
	}
	t.Logf("an Answer over replies of %d bytes allocates %.0f bytes (%.2f×)", size, perAnswer, perAnswer/float64(size))
	if perAnswer > 1.25*float64(size) {
		t.Errorf("an Answer over replies of %d bytes allocates %.0f bytes, over 1.25× the replies: the arrays are copied again", size, perAnswer)
	}
}

// BenchmarkCoordinatorAnswer prices an incidents Answer over two loopback
// workers of 5,000 incidents each: the requests, the replies' read and check,
// and the merge.
func BenchmarkCoordinatorAnswer(b *testing.B) {
	c, wids, size := answerFleet(b, 5000)
	plan := pattern.MustParse("A -> B")
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, comp, _, err := c.Answer(context.Background(), "log", plan, eval.ShapeIncidents, ExecOptions{WIDs: wids}, nil); err != nil || !comp.Complete {
			b.Fatalf("completeness %+v, err %v", comp, err)
		}
	}
}
