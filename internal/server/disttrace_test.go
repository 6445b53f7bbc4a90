package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/faultinject"
	"wlq/internal/flightrec"
	"wlq/internal/obs"
)

// Distributed tracing suite: the coordinator mints one trace id per query
// and stitches a subtree per worker, built from the counters and timings of
// its reply, into one cross-process trace. Named with the Cluster prefix so
// the CI chaos step (-race) covers it.

// walkSpans visits every span of the tree in pre-order.
func walkSpans(s *obs.Span, fn func(*obs.Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		walkSpans(c, fn)
	}
}

// findSpans returns every span in the tree satisfying pred.
func findSpans(s *obs.Span, pred func(*obs.Span) bool) []*obs.Span {
	var out []*obs.Span
	walkSpans(s, func(sp *obs.Span) {
		if pred(sp) {
			out = append(out, sp)
		}
	})
	return out
}

// TestClusterDistributedTraceStitched is the tentpole acceptance walk: a
// traced distributed query returns ONE stitched trace — worker attribution
// on every span, grafted worker subtrees under the transport spans that
// carried them, a fleet-aggregated cost table honoring the Lemma 1 bound —
// and the answer is naive Algorithm 1's across fleet sizes (the workers
// evaluate over the columnar store: the traced-over-columnar check).
func TestClusterDistributedTraceStitched(t *testing.T) {
	l := clusterEquivalenceLogs()["uniform"]
	const q = "(Act00 . Act01) -> Act02"
	body := fmt.Sprintf(`{"log":"eq","query":%q,"strategy":"naive","trace":true}`, q)
	want := oracleDigest(l, q)

	for _, workers := range []int{1, 2, 4} {
		name := fmt.Sprintf("%dw", workers)
		coord := newClusterFixture(t, workers, "eq", l, nil, nil).coord

		var got queryResponse
		if rec := postQuery(t, coord.Handler(), body, &got); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
		}
		if digestOf(got) != want {
			t.Fatalf("%s: traced cluster answer diverges from naive Algorithm 1", name)
		}
		tr := got.Trace
		if tr == nil || tr.Spans == nil {
			t.Fatalf("%s: no stitched trace in the response", name)
		}
		if len(tr.TraceID) != 32 {
			t.Fatalf("%s: trace id %q, want 32 hex chars", name, tr.TraceID)
		}

		// Every span of the stitched tree is attributed to a process.
		workerSet := make(map[string]bool)
		walkSpans(tr.Spans, func(sp *obs.Span) {
			if sp.Worker == "" {
				t.Fatalf("%s: span %q has no worker attribution", name, sp.Name)
			}
			workerSet[sp.Worker] = true
		})
		if !workerSet["coordinator"] {
			t.Fatalf("%s: no coordinator-attributed spans in %v", name, workerSet)
		}

		// Each contacted worker's subtree is grafted in, rooted at its
		// "worker" span, carrying the propagated trace id.
		grafted := findSpans(tr.Spans, func(sp *obs.Span) bool { return sp.Name == "worker" })
		if len(grafted) == 0 {
			t.Fatalf("%s: no grafted worker subtrees", name)
		}
		for _, g := range grafted {
			if !strings.HasPrefix(g.Worker, "http://") {
				t.Fatalf("%s: grafted subtree attributed to %q, want a worker URL", name, g.Worker)
			}
			if got := g.Attrs["trace_id"]; got != tr.TraceID {
				t.Fatalf("%s: worker subtree ran under trace %v, coordinator sent %s", name, got, tr.TraceID)
			}
			if g.Attrs["parent_span_id"] == "" {
				t.Fatalf("%s: worker subtree has no parent span id", name)
			}
		}

		// Coordinator-side stages of the fan-out are spans too.
		for _, stage := range []string{"scatter", "merge", "transport", "queue-wait"} {
			if len(findSpans(tr.Spans, func(sp *obs.Span) bool { return sp.Name == stage })) == 0 {
				t.Fatalf("%s: stitched trace missing the %q stage", name, stage)
			}
		}

		// The cost table is the fleet aggregate; under naive every
		// operator row keeps measured ≤ predicted end to end.
		if len(tr.CostTable) == 0 {
			t.Fatalf("%s: no fleet cost table", name)
		}
		for _, row := range tr.CostTable {
			if row.Op != "atom" && row.Comparisons > row.Predicted {
				t.Errorf("%s: %s: fleet measured %d > predicted %d under naive",
					name, row.Node, row.Comparisons, row.Predicted)
			}
		}
	}
}

// TestClusterTraceStableAcrossRetry: a transport failure burns an attempt
// but not the trace — the retried request carries the SAME trace id (a fresh
// span id), and the stitched trace shows both transport attempts plus the
// backoff between them as sibling spans.
func TestClusterTraceStableAcrossRetry(t *testing.T) {
	l := chaosLog(t, 16, 2)
	var flaky faultinject.FlakyRoundTripper
	var victim string
	f := newClusterFixture(t, 2, "chaos", l, func(c *cluster.Config) {
		victim = c.Workers[0]
		flaky = faultinject.FlakyRoundTripper{Match: victim, FailOn: faultinject.OnNthCall(1)}
		c.Transport = &flaky
		c.MaxAttempts = 2
	}, nil)

	var resp queryResponse
	rec := postQuery(t, f.coord.Handler(), `{"log":"chaos","query":"A -> B","trace":true}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 after retry: %s", rec.Code, rec.Body)
	}
	if resp.Trace == nil || resp.Trace.TraceID == "" {
		t.Fatal("no trace id on the retried query")
	}

	wspans := findSpans(resp.Trace.Spans, func(sp *obs.Span) bool { return sp.Name == "worker "+victim })
	if len(wspans) != 1 {
		t.Fatalf("%d spans for the flaky worker, want 1", len(wspans))
	}
	transports := findSpans(wspans[0], func(sp *obs.Span) bool { return sp.Name == "transport" })
	if len(transports) != 2 {
		t.Fatalf("%d transport spans for the flaky worker, want the failed + retried pair", len(transports))
	}
	if transports[0].Attrs["error"] == nil {
		t.Fatal("first transport span carries no error annotation")
	}
	// Fresh span id per attempt, same trace throughout.
	if a, b := transports[0].Attrs["span_id"], transports[1].Attrs["span_id"]; a == nil || a == b {
		t.Fatalf("attempt span ids %v, %v — want distinct non-empty ids", a, b)
	}
	if len(findSpans(wspans[0], func(sp *obs.Span) bool { return sp.Name == "backoff" })) != 1 {
		t.Fatal("no backoff span between the attempts")
	}
	// The grafted subtree (under the winning attempt) ran under the query's id.
	grafted := findSpans(wspans[0], func(sp *obs.Span) bool { return sp.Name == "worker" })
	if len(grafted) != 1 {
		t.Fatalf("%d grafted subtrees under the flaky worker, want 1", len(grafted))
	}
	if got := grafted[0].Attrs["trace_id"]; got != resp.Trace.TraceID {
		t.Fatalf("grafted subtree ran under trace %v, want %s", got, resp.Trace.TraceID)
	}
	// The capture's per-worker detail records the attempt history.
	flights := f.coord.flight.List(flightrec.Filter{Worker: victim})
	if len(flights) != 1 || flights[0].Workers == nil {
		t.Fatalf("%d captures for the flaky worker, want 1 with detail", len(flights))
	}
	for _, d := range flights[0].Workers.PerWorker {
		if d.Worker == victim && (d.Attempts != 2 || d.Retries != 1 || d.Status != "ok") {
			t.Fatalf("victim detail = %+v, want 2 attempts / 1 retry / ok", d)
		}
	}
}

// TestClusterTraceTimedOutAttemptSiblingSpans: an attempt ended by the
// per-attempt timeout and its retry show up as two sibling transport spans
// under the worker — attempt 1 with the deadline error, attempt 2 with the
// worker's subtree grafted under it.
func TestClusterTraceTimedOutAttemptSiblingSpans(t *testing.T) {
	l := chaosLog(t, 16, 2)
	var victim string
	f := newClusterFixture(t, 2, "chaos", l, func(c *cluster.Config) {
		victim = c.Workers[0]
		c.Transport = &faultinject.FlakyRoundTripper{Match: victim, BlackholeOn: faultinject.OnNthCall(1)}
		c.WorkerTimeout = 100 * time.Millisecond
	}, nil)

	var resp queryResponse
	rec := postQuery(t, f.coord.Handler(), `{"log":"chaos","query":"A -> B","trace":true}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 after the retry: %s", rec.Code, rec.Body)
	}
	wspans := findSpans(resp.Trace.Spans, func(sp *obs.Span) bool { return sp.Name == "worker "+victim })
	if len(wspans) != 1 {
		t.Fatalf("%d spans for the blackholed worker, want 1", len(wspans))
	}
	var transports []*obs.Span
	for _, sp := range wspans[0].Children {
		if sp.Name == "transport" {
			transports = append(transports, sp)
		}
	}
	if len(transports) != 2 {
		t.Fatalf("%d sibling transport spans, want the timed-out attempt + its retry", len(transports))
	}
	first, second := transports[0], transports[1]
	if e, _ := first.Attrs["error"].(string); first.Attrs["attempt"] != 1.0 || !strings.Contains(e, "deadline exceeded") {
		t.Fatalf("first transport span %v, want attempt 1 with a deadline error", first.Attrs)
	}
	if second.Attrs["attempt"] != 2.0 || second.Attrs["error"] != nil {
		t.Fatalf("second transport span %v, want attempt 2 without an error", second.Attrs)
	}
	// The worker subtree is grafted under the attempt whose reply was used.
	if len(findSpans(first, func(sp *obs.Span) bool { return sp.Name == "worker" })) != 0 ||
		len(findSpans(second, func(sp *obs.Span) bool { return sp.Name == "worker" })) != 1 {
		t.Fatal("worker subtree not grafted under the second attempt alone")
	}
}

// TestClusterNotableCaptureOnAStraggler: a worker whose first request is
// blackholed holds the query past the slow-query threshold until its retry
// answers. The notable capture of that query — untraced, the flight
// recorder's own trace — carries both workers' worker → prepare, eval
// subtrees, the straggler's under its second transport span, and the fleet
// cost table with both workers' counters in it.
func TestClusterNotableCaptureOnAStraggler(t *testing.T) {
	l := chaosLog(t, 16, 2)
	var straggler string
	f := newClusterFixture(t, 2, "chaos", l, func(c *cluster.Config) {
		straggler = c.Workers[1]
		c.Transport = &faultinject.FlakyRoundTripper{Match: straggler, BlackholeOn: faultinject.OnNthCall(1)}
		c.WorkerTimeout = 100 * time.Millisecond
		c.MaxAttempts = 2
	}, func(c *Config) { c.SlowQuery = 50 * time.Millisecond })
	if rec := postQuery(t, f.coord.Handler(), `{"log":"chaos","query":"(A -> B) | (B & A)"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 after the retry: %s", rec.Code, rec.Body)
	}
	notable := f.coord.flight.List(flightrec.Filter{SlowOnly: true})
	if len(notable) != 1 || notable[0].Trace == nil {
		t.Fatalf("%d slow captures, want 1 with a trace", len(notable))
	}
	tr := notable[0].Trace
	for _, url := range f.urls {
		wspans := findSpans(tr.Spans, func(sp *obs.Span) bool { return sp.Name == "worker "+url })
		if len(wspans) != 1 {
			t.Fatalf("%d spans for %s, want 1", len(wspans), url)
		}
		var transports []*obs.Span
		for _, sp := range wspans[0].Children {
			if sp.Name == "transport" {
				transports = append(transports, sp)
			}
		}
		if want := map[bool]int{false: 1, true: 2}[url == straggler]; len(transports) != want {
			t.Fatalf("%s: %d transport spans, want %d", url, len(transports), want)
		}
		for i, sp := range transports {
			subtrees := findSpans(sp, func(sp *obs.Span) bool { return sp.Name == "worker" })
			if i < len(transports)-1 {
				if len(subtrees) != 0 {
					t.Fatalf("%s: a subtree under the failed attempt %d", url, i+1)
				}
				continue
			}
			if len(subtrees) != 1 || subtrees[0].Worker != url || len(subtrees[0].Children) != 2 ||
				subtrees[0].Children[0].Name != "prepare" || subtrees[0].Children[1].Name != "eval" {
				t.Fatalf("%s: no worker → prepare, eval subtree stamped with its URL under the accepted attempt", url)
			}
			if subtrees[0].Attrs["parent_span_id"] != sp.Attrs["span_id"] || subtrees[0].Attrs["trace_id"] != tr.TraceID {
				t.Fatalf("%s: subtree ids %v, want the transport span's and the trace's", url, subtrees[0].Attrs)
			}
		}
	}
	// Every instance of both parts is in the root row of the fleet table.
	if len(tr.CostTable) == 0 || tr.CostTable[0].Evals != uint64(len(l.WIDs())) {
		t.Fatalf("fleet cost table %+v: want the root evaluated on all %d instances", tr.CostTable, len(l.WIDs()))
	}
}

// TestClusterTraceStaleWorkerExcluded: a stale worker (its copy of the log
// is short of the coordinator's inside its interval) is excluded from the
// merge, but the trace survives — same trace id, surviving workers' subtrees
// grafted, and the stale worker's span annotated with the mismatch.
func TestClusterTraceStaleWorkerExcluded(t *testing.T) {
	fresh := chaosLog(t, 16, 2)
	f := newClusterFixture(t, 2, "chaos", fresh, nil, nil)
	const victimIdx, staleSize = 1, 15
	staleSrv := New(Config{WorkerMode: true, FlightRecorderSize: -1})
	if err := staleSrv.AddLog("chaos", "builtin:stale", chaosLog(t, staleSize, 2)); err != nil {
		t.Fatal(err)
	}
	victim := f.urls[victimIdx]
	addr := strings.TrimPrefix(victim, "http://")
	f.workers[victimIdx].CloseClientConnections()
	f.workers[victimIdx].Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	stale := &httptest.Server{Listener: ln, Config: &http.Server{Handler: staleSrv.Handler()}}
	stale.Start()
	t.Cleanup(stale.Close)

	rec := postQuery(t, f.coord.Handler(), `{"log":"chaos","query":"A -> B","partial":true,"trace":true}`, nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || len(resp.Trace.TraceID) != 32 {
		t.Fatalf("degraded query lost its trace: %+v", resp.Trace)
	}
	// The survivor's subtree is in; the stale worker contributed none.
	grafted := findSpans(resp.Trace.Spans, func(sp *obs.Span) bool { return sp.Name == "worker" })
	if len(grafted) == 0 {
		t.Fatal("no surviving worker subtree in the degraded trace")
	}
	for _, g := range grafted {
		if g.Worker == victim {
			t.Fatal("the excluded stale worker's subtree was grafted anyway")
		}
	}
	// The mismatch is named on the stale worker's span.
	mismatched := findSpans(resp.Trace.Spans, func(sp *obs.Span) bool {
		e, _ := sp.Attrs["error"].(string)
		return strings.Contains(e, "placement mismatch")
	})
	if len(mismatched) == 0 {
		t.Fatal("no span names the placement mismatch")
	}
}

// TestClusterStitchedTraceShape: a span is a timed stage and the per-node
// numbers live in the cost table alone. A single-node trace's eval span has
// no children and its table one row per plan node; on a 2-worker fan-out the
// coordinator's eval span has no children, each worker subtree is exactly
// worker → prepare, eval, and the fleet table — the workers' counters added
// into one meter — equals the single node's, column for column.
func TestClusterStitchedTraceShape(t *testing.T) {
	l := chaosLog(t, 16, 2)
	const body = `{"log":"chaos","query":"(A -> B) | (B & A)","strategy":"naive","trace":true}`
	evalSpanIsLeaf := func(t *testing.T, tr *obs.QueryTrace) {
		t.Helper()
		for _, c := range tr.Spans.Children {
			if c.Name == "eval" && len(c.Children) != 0 {
				t.Fatalf("eval span has %d children, want none", len(c.Children))
			}
		}
	}

	single := New(Config{})
	if err := single.AddLog("chaos", "builtin:chaos", l); err != nil {
		t.Fatal(err)
	}
	var one queryResponse
	if rec := postQuery(t, single.Handler(), body, &one); rec.Code != http.StatusOK || one.Trace == nil {
		t.Fatalf("single node: status %d: %s", rec.Code, rec.Body)
	}
	evalSpanIsLeaf(t, one.Trace)
	if got, want := len(one.Trace.CostTable), pattern.Size(pattern.MustParse(one.Trace.Plan)); got != want {
		t.Fatalf("single node: %d cost rows, want one per plan node (%d)", got, want)
	}

	f := newClusterFixture(t, 2, "chaos", l, nil, nil)
	var fan queryResponse
	if rec := postQuery(t, f.coord.Handler(), body, &fan); rec.Code != http.StatusOK || fan.Trace == nil {
		t.Fatalf("fan-out: status %d: %s", rec.Code, rec.Body)
	}
	evalSpanIsLeaf(t, fan.Trace)
	grafted := findSpans(fan.Trace.Spans, func(sp *obs.Span) bool { return sp.Name == "worker" })
	if len(grafted) != 2 {
		t.Fatalf("%d worker subtrees, want 2", len(grafted))
	}
	for _, g := range grafted {
		if len(g.Children) != 2 || g.Children[0].Name != "prepare" || g.Children[1].Name != "eval" ||
			len(g.Children[0].Children)+len(g.Children[1].Children) != 0 {
			t.Fatalf("worker subtree of %s is not exactly worker → prepare, eval", g.Worker)
		}
	}
	if !reflect.DeepEqual(fan.Trace.CostTable, one.Trace.CostTable) {
		t.Fatalf("fleet cost table\n%+v\nis not the single node's\n%+v", fan.Trace.CostTable, one.Trace.CostTable)
	}
}

// TestClusterWorkerTraceEndpoint covers the worker's side of a traced
// fan-out. The worker returns its own two stages' timings and the scan's
// counters, nothing of a trace, whatever a request from a coordinator of
// before counters carried (a "trace" flag and a traceparent header); the
// coordinator puts each reply's stages under the trace id it minted for the
// query and the transport span that carried it, attributed to the worker.
func TestClusterWorkerTraceEndpoint(t *testing.T) {
	l := chaosLog(t, 16, 2)
	const plan = "(A -> B) | (B & A)"
	p := pattern.MustParse(plan)

	t.Run("adopts the propagated trace id", func(t *testing.T) {
		f := newClusterFixture(t, 2, "chaos", l, nil, nil)
		var got queryResponse
		body := fmt.Sprintf(`{"log":"chaos","query":%q,"strategy":"naive","trace":true}`, plan)
		if rec := postQuery(t, f.coord.Handler(), body, &got); rec.Code != http.StatusOK || got.Trace == nil {
			t.Fatalf("status %d, want 200 with a trace: %s", rec.Code, rec.Body)
		}
		tr := got.Trace
		for _, url := range f.urls {
			transports := findSpans(tr.Spans, func(sp *obs.Span) bool {
				return sp.Name == "transport" && len(findSpans(sp, func(c *obs.Span) bool { return c.Name == "worker" && c.Worker == url })) == 1
			})
			if len(transports) != 1 {
				t.Fatalf("%s: %d transport spans carrying its subtree, want 1", url, len(transports))
			}
			sub := transports[0].Children[0]
			if sub.Attrs["trace_id"] != tr.TraceID {
				t.Fatalf("%s: subtree under trace %v, the query's is %s", url, sub.Attrs["trace_id"], tr.TraceID)
			}
			if sid := transports[0].Attrs["span_id"]; sid == nil || sub.Attrs["parent_span_id"] != sid {
				t.Fatalf("%s: parent_span_id = %v, the transport span's id is %v", url, sub.Attrs["parent_span_id"], sid)
			}
			walkSpans(sub, func(sp *obs.Span) {
				if sp.Worker != url {
					t.Fatalf("span %q attributed to %q, want %q", sp.Name, sp.Worker, url)
				}
			})
		}
	})
	t.Run("mints a fresh id on a malformed header", func(t *testing.T) {
		f := newClusterFixture(t, 2, "chaos", l, nil, nil)
		seen := make(map[string]bool)
		for _, header := range []string{"", "not-a-traceparent", "00-" + obs.NewTraceID() + "-" + obs.NewSpanID() + "-01"} {
			body := fmt.Sprintf(`{"log":"chaos","query":%q,"trace":true}`, plan)
			r := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
			if header != "" {
				r.Header.Set("Traceparent", header)
			}
			rec := httptest.NewRecorder()
			f.coord.Handler().ServeHTTP(rec, r)
			var got queryResponse
			if rec.Code != http.StatusOK {
				t.Fatalf("header %q: status %d: %s", header, rec.Code, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.Trace == nil {
				t.Fatalf("header %q: no trace (%v): %s", header, err, rec.Body)
			}
			id := got.Trace.TraceID
			if len(id) != 32 || seen[id] || (header != "" && strings.Contains(header, id)) {
				t.Fatalf("header %q: trace id %q, want a freshly minted 32-hex id", header, id)
			}
			seen[id] = true
			for _, sub := range findSpans(got.Trace.Spans, func(sp *obs.Span) bool { return sp.Name == "worker" }) {
				if sub.Attrs["trace_id"] != id {
					t.Fatalf("header %q: worker subtree under trace %v, want %s", header, sub.Attrs["trace_id"], id)
				}
			}
		}
	})
	t.Run("returns its stages alone", func(t *testing.T) {
		s, _ := startWorker(t, "chaos", l)
		lo, hi := uint64(1), uint64(8)
		entry, err := s.lookup("chaos")
		if err != nil {
			t.Fatal(err)
		}
		src := entry.pin()
		var owned []uint64
		for _, wid := range src.WIDs() {
			if wid >= lo && wid <= hi {
				owned = append(owned, wid)
			}
		}
		for _, mode := range []string{"incidents", "instances", "count"} {
			shape, err := eval.ParseShape(mode)
			if err != nil {
				t.Fatal(err)
			}
			meter := eval.NewMeter(p)
			if _, err := eval.New(src, eval.Options{Strategy: eval.StrategyNaive, Meter: meter}).ServeCtx(context.Background(), p, owned, 1, shape, nil); err != nil {
				t.Fatal(err)
			}
			for _, old := range []bool{false, true} {
				body := fmt.Sprintf(`{"log":"chaos","plan":%q,"wid_min":%d,"wid_max":%d,"self":"http://w1","mode":%q,"strategy":"naive"`, plan, lo, hi, mode)
				if old {
					body += `,"trace":true`
				}
				r := httptest.NewRequest(http.MethodPost, "/v1/worker/query", strings.NewReader(body+`}`))
				if old {
					r.Header.Set("Traceparent", "00-"+obs.NewTraceID()+"-"+obs.NewSpanID()+"-01")
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, r)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", mode, rec.Code, rec.Body)
				}
				for _, gone := range []string{`"trace_id"`, `"spans"`, `"cost_table"`} {
					if strings.Contains(rec.Body.String(), gone) {
						t.Fatalf("%s: the reply carries %s: %s", mode, gone, rec.Body)
					}
				}
				var resp cluster.WorkerQueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if len(resp.Ops) != pattern.Size(p) || !reflect.DeepEqual(resp.Ops, meter.Ops()) {
					t.Fatalf("%s: ops %v, want a local meter's over the same wids, one row per plan node: %v", mode, resp.Ops, meter.Ops())
				}
				if resp.PrepareUS < 0 || resp.EvalUS < 0 || resp.PrepareUS > resp.ElapsedUS || resp.EvalUS > resp.ElapsedUS {
					t.Fatalf("%s: prepare %dµs, eval %dµs, elapsed %dµs: want each within [0, elapsed]", mode, resp.PrepareUS, resp.EvalUS, resp.ElapsedUS)
				}
			}
		}
	})
}

// TestClusterDegradedRunDoesNotFeedStats: a complete distributed run is
// counted complete and a degraded 206 is counted partial — the disposition
// is only known at the coordinator, where the merge happens.
func TestClusterDegradedRunDoesNotFeedStats(t *testing.T) {
	l := chaosLog(t, 16, 2)
	f := newClusterFixture(t, 2, "chaos", l, func(c *cluster.Config) {
		c.MaxAttempts = 1
		c.WorkerTimeout = 2 * time.Second
	}, func(c *Config) {
		c.CacheSize = -1
	})
	h := f.coord.Handler()
	partials := func() uint64 {
		var m metricsDoc
		getJSON(t, h, "/metrics", &m)
		return m.PartialResults.Load()
	}

	if rec := postQuery(t, h, `{"log":"chaos","query":"A -> B","partial":true}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("healthy status %d: %s", rec.Code, rec.Body)
	}
	if got := partials(); got != 0 {
		t.Fatalf("partial_results = %d after a complete run, want 0", got)
	}

	const victim = 1
	f.workers[victim].CloseClientConnections()
	f.workers[victim].Close()

	if rec := postQuery(t, h, `{"log":"chaos","query":"A -> B","partial":true}`, nil); rec.Code != http.StatusPartialContent {
		t.Fatalf("degraded status %d, want 206: %s", rec.Code, rec.Body)
	}
	if got := partials(); got != 1 {
		t.Fatalf("partial_results = %d after a degraded 206, want 1", got)
	}
}

// TestClusterFlightWorkerFilter: GET /v1/queries?worker= narrows the list
// to captures that touched the worker, the summaries carry per-worker
// elapsed/status briefs, and the full capture retains the structured
// per-worker detail with the trace id.
func TestClusterFlightWorkerFilter(t *testing.T) {
	l := chaosLog(t, 16, 2)
	f := newClusterFixture(t, 2, "chaos", l, nil, nil)
	h := f.coord.Handler()
	if rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	contacted := f.urls[0]

	var doc flightListDoc
	getJSON(t, h, "/v1/queries?worker="+url.QueryEscape(contacted), &doc)
	if doc.Count != 1 {
		t.Fatalf("worker filter matched %d captures, want 1", doc.Count)
	}
	briefs := doc.Queries[0].Workers
	if len(briefs) == 0 {
		t.Fatal("capture summary has no per-worker briefs")
	}
	found := false
	for _, b := range briefs {
		if b.Worker == contacted {
			found = true
			if b.Status != "ok" || b.ElapsedUS <= 0 {
				t.Fatalf("brief for %s = %+v, want ok with positive elapsed", contacted, b)
			}
		}
	}
	if !found {
		t.Fatalf("briefs %+v do not name the contacted worker %s", briefs, contacted)
	}

	getJSON(t, h, "/v1/queries?worker="+url.QueryEscape("http://nobody:1"), &doc)
	if doc.Count != 0 {
		t.Fatalf("unknown-worker filter matched %d captures, want 0", doc.Count)
	}

	// The full capture carries the structured detail and the trace id that
	// ties it to the stitched spans.
	var capture flightrec.Capture
	getJSON(t, h, fmt.Sprintf("/v1/queries/%d", doc.Captured), &capture)
	if capture.Workers == nil || len(capture.Workers.PerWorker) == 0 {
		t.Fatal("full capture has no per-worker detail")
	}
	if len(capture.Workers.TraceID) != 32 {
		t.Fatalf("capture trace id %q, want 32 hex chars", capture.Workers.TraceID)
	}
	if capture.Trace == nil || capture.Trace.TraceID != capture.Workers.TraceID {
		t.Fatal("capture trace and worker summary disagree on the trace id")
	}
	if len(findSpans(capture.Trace.Spans, func(sp *obs.Span) bool {
		return sp.Name == "worker" && sp.Worker == contacted
	})) != 1 {
		t.Fatal("the capture's trace has no subtree from the contacted worker")
	}
}

// TestClusterWorkerDurationHistogram: every worker request feeds the
// per-worker latency histogram, exposed in both the JSON metrics and the
// prometheus exposition.
func TestClusterWorkerDurationHistogram(t *testing.T) {
	l := chaosLog(t, 16, 2)
	f := newClusterFixture(t, 2, "chaos", l, nil, nil)
	h := f.coord.Handler()
	postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, nil)

	contacted := f.urls[0]
	var total uint64
	for _, wd := range f.coord.Coordinator().Durations() {
		if len(wd.Buckets) != len(cluster.DurationBucketsUS)+1 {
			t.Fatalf("%s: %d buckets, want %d bounds + overflow",
				wd.Worker, len(wd.Buckets), len(cluster.DurationBucketsUS))
		}
		if wd.Worker == contacted && wd.Count == 0 {
			t.Fatalf("no observations for the contacted worker %s", contacted)
		}
		total += wd.Count
	}
	if total == 0 {
		t.Fatal("no duration observations anywhere in the fleet")
	}

	prom := getJSON(t, h, "/metrics?format=prometheus", nil).Body.String()
	for _, want := range []string{
		"# TYPE wlq_worker_query_duration_seconds histogram",
		fmt.Sprintf("wlq_worker_query_duration_seconds_bucket{worker=%q,le=\"+Inf\"}", contacted),
		fmt.Sprintf("wlq_worker_query_duration_seconds_count{worker=%q}", contacted),
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}
