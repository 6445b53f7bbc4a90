package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// replyBody is a well-formed worker reply to an incidents-mode request,
// around the given incidents array.
func replyBody(req WorkerQueryRequest, owned int, incidents string) string {
	return fmt.Sprintf(`{"worker":%q,"wids_owned":%d,"instances":%d,"incidents":%s,"elapsed_us":1}`,
		req.Self, owned, owned, incidents)
}

// shapedReplyBody is the reply in the request's mode: the incidents, or
// their number with, in mode "instances", the wids they lie in.
func shapedReplyBody(req WorkerQueryRequest, owned int, incs []incident.Incident) string {
	array := ""
	switch req.Mode {
	case "count":
	case "instances":
		wids, _ := json.Marshal(append([]uint64{}, incident.MergeSorted(incs).WIDs()...))
		array = `,"wids":` + string(wids)
	default:
		return replyBody(req, owned, string(AppendIncidents(nil, incs)))
	}
	return fmt.Sprintf(`{"worker":%q,"wids_owned":%d,"instances":%d,"count":%d%s,"elapsed_us":1}`,
		req.Self, owned, owned, len(incs), array)
}

// fakeWorker answers POST /v1/worker/query with a well-formed envelope —
// the member count the coordinator cross-checks included — around whatever
// incidents(owned) returns, and counts the requests it served.
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
		io.WriteString(w, replyBody(req, len(owned), incidents(owned)))
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
	return string(AppendIncidents(nil, incs))
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
			if lost.Worker != bad.URL || !strings.Contains(lost.Cause, ErrMalformedIncidents.Error()) {
				t.Errorf("lost part = %+v, want %s with a malformed-incidents cause", lost, bad.URL)
			}
			if lost.Attempts != 1 || badServed.Load() != 1 || fan.Retries != 0 {
				t.Errorf("malformed reply was retried: attempts %d, requests served %d, retries %d",
					lost.Attempts, badServed.Load(), fan.Retries)
			}
		})
	}
}

// TestCoordinatorLosesAnIndentedReply: the incidents array has one
// spelling, the one the coordinator splices into its answer as it stands. A
// worker that indents it sends the same incidents in other bytes; its part is
// lost, named and not retried, like any other malformed reply, while an
// envelope in any JSON spelling around a canonical array still reads.
func TestCoordinatorLosesAnIndentedReply(t *testing.T) {
	wids := testWIDs(16)
	indented, indentedServed := fakeWorker(t, wids, func(owned []uint64) string {
		var buf bytes.Buffer
		if err := json.Indent(&buf, []byte(oneIncidentPerWID(owned)), "  ", "  "); err != nil {
			t.Error(err)
		}
		return buf.String()
	})
	spaced := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req WorkerQueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		owned := ownedWIDs(wids, req)
		fmt.Fprintf(w, "{ \"instances\" : %d,\n \"worker\":%q ,\"incidents\":%s ,\n\t\"wids_owned\": %d }\n",
			len(owned), req.Self, oneIncidentPerWID(owned), len(owned))
	}))
	t.Cleanup(spaced.Close)
	c, err := New(Config{Workers: []string{spaced.URL, indented.URL}, MaxAttempts: 3, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	set, comp, _, err := c.Execute(context.Background(), "log", pattern.MustParse("A -> B"), ExecOptions{WIDs: wids}, nil)
	if err != nil || comp.Complete || comp.Failed != 1 || set.Len() != len(wids)/2 {
		t.Fatalf("set %v, completeness %+v, err %v; want the spaced envelope's half and the indented part lost", set, comp, err)
	}
	lost := comp.Failures[0]
	if lost.Worker != indented.URL || lost.Attempts != 1 || indentedServed.Load() != 1 || !strings.Contains(lost.Cause, ErrMalformedIncidents.Error()) {
		t.Errorf("lost part %+v after %d requests, want the indented worker's, once, as malformed", lost, indentedServed.Load())
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
			if !strings.Contains(lost.Cause, ErrMalformedIncidents.Error()) {
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
		if err != nil || !comp.Complete || a.Count != len(wids) || a.Incidents != nil || qs.Incidents != len(wids) {
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

// TestClusterReplyInAnotherModeLosesThePart: a worker from before the mode
// field answers a count request with incidents and no count. Its part is
// lost, unretried, under the completeness contract — never decoded into a
// count the coordinator made up.
func TestClusterReplyInAnotherModeLosesThePart(t *testing.T) {
	wids := testWIDs(12)
	old, oldServed := fakeWorker(t, wids, func(owned []uint64) string {
		incs := make([]incident.Incident, len(owned))
		for i, wid := range owned {
			incs[i] = incident.New(wid, 1, 2)
		}
		return string(AppendIncidents(nil, incs))
	})
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
	c, err := New(Config{
		Workers:     []string{current.URL, old.URL},
		MaxAttempts: 3, Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, comp, _, err := c.Answer(context.Background(), "log", pattern.MustParse("A -> B"), eval.ShapeCount, ExecOptions{WIDs: wids}, nil)
	if err != nil || comp.Complete || comp.Failed != 1 || a.Count != 6 {
		t.Fatalf("answer %+v, completeness %+v, err %v; want the current worker's 6 and one part lost", a, comp, err)
	}
	if lost := comp.Failures[0]; lost.Worker != old.URL || lost.Attempts != 1 || oldServed.Load() != 1 || !strings.Contains(lost.Cause, "mode") {
		t.Errorf("lost part %+v after %d requests, want the old worker's, once, naming the mode", lost, oldServed.Load())
	}
	// The same fleet still answers an incidents request whole.
	set, comp, _, err := c.Execute(context.Background(), "log", pattern.MustParse("A -> B"), ExecOptions{WIDs: wids}, nil)
	if err != nil || !comp.Complete || set.Len() != len(wids) {
		t.Fatalf("incidents: set %v, completeness %+v, err %v", set, comp, err)
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
