package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"wlq"
	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/gen"
	"wlq/internal/obs"
	"wlq/internal/wlog"
)

// newTestServer serves the paper's Figure 3 log under the name "fig3".
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.AddLog("fig3", "builtin:fig3", wlq.ClinicFig3()); err != nil {
		t.Fatal(err)
	}
	return s
}

// postQuery sends a POST /v1/query and decodes the response into out.
func postQuery(t *testing.T, h http.Handler, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode response: %v\n%s", err, rec.Body)
		}
	}
	return rec
}

func getJSON(t *testing.T, h http.Handler, url string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, rec.Body)
		}
	}
	return rec
}

func TestQueryMatchesEngine(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	engine := wlq.NewEngine(wlq.ClinicFig3())
	for _, q := range []string{
		"UpdateRefer -> GetReimburse",
		"SeeDoctor -> (UpdateRefer -> GetReimburse)",
		"GetRefer . SeeDoctor",
		"GetRefer | SeeDoctor",
		"Zzz -> Zzz",
	} {
		want, err := engine.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var resp queryResponse
		rec := postQuery(t, h, fmt.Sprintf(`{"log":"fig3","query":%q}`, q), &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: status %d: %s", q, rec.Code, rec.Body)
		}
		if resp.Count != want.Len() {
			t.Errorf("%q: server count %d, engine count %d", q, resp.Count, want.Len())
		}
		if len(resp.Incidents) != want.Len() {
			t.Fatalf("%q: %d incidents in payload, want %d", q, len(resp.Incidents), want.Len())
		}
		for i, doc := range resp.Incidents {
			inc := want.At(i)
			if doc.WID != inc.WID() {
				t.Errorf("%q incident %d: wid %d, want %d", q, i, doc.WID, inc.WID())
			}
			wantSeqs := inc.Seqs()
			if len(doc.Seqs) != len(wantSeqs) {
				t.Fatalf("%q incident %d: seqs %v, want %v", q, i, doc.Seqs, wantSeqs)
			}
			for j := range wantSeqs {
				if doc.Seqs[j] != wantSeqs[j] {
					t.Errorf("%q incident %d: seqs %v, want %v", q, i, doc.Seqs, wantSeqs)
					break
				}
			}
		}
	}
}

func TestQueryModes(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	var resp queryResponse
	postQuery(t, h, `{"log":"fig3","query":"UpdateRefer -> GetReimburse","mode":"exists"}`, &resp)
	if !resp.Exists || resp.Incidents != nil {
		t.Errorf("exists mode: %+v", resp)
	}
	postQuery(t, h, `{"log":"fig3","query":"UpdateRefer -> GetReimburse","mode":"count"}`, &resp)
	if resp.Count != 1 || resp.Incidents != nil {
		t.Errorf("count mode: %+v", resp)
	}
	resp = queryResponse{}
	postQuery(t, h, `{"log":"fig3","query":"UpdateRefer -> GetReimburse","mode":"instances"}`, &resp)
	if len(resp.Instances) != 1 || resp.Instances[0] != 2 {
		t.Errorf("instances mode: %+v", resp.Instances)
	}
}

func TestQueryErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	tests := []struct {
		name string
		body string
		code int
	}{
		{"parse error", `{"log":"fig3","query":"A -> "}`, http.StatusBadRequest},
		{"missing query", `{"log":"fig3"}`, http.StatusBadRequest},
		{"unknown log", `{"log":"nope","query":"A"}`, http.StatusNotFound},
		{"bad mode", `{"log":"fig3","query":"A","mode":"wat"}`, http.StatusBadRequest},
		{"bad strategy", `{"log":"fig3","query":"A","strategy":"quantum"}`, http.StatusBadRequest},
		// No per-operator cap: an unknown field, named in the error.
		{"limit", `{"query":"A","limit":1}`, http.StatusBadRequest},
		{"unknown field", `{"log":"fig3","query":"A","frobnicate":1}`, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rec := postQuery(t, h, tt.body, nil)
			if rec.Code != tt.code {
				t.Errorf("status %d, want %d: %s", rec.Code, tt.code, rec.Body)
			}
			var e errorDoc
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("error body not a JSON error envelope: %s", rec.Body)
			}
			if tt.name == "limit" && !strings.Contains(e.Error, `"limit"`) {
				t.Errorf("error %q does not name the field", e.Error)
			}
		})
	}
}

func TestQueryMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: status %d, want 405", rec.Code)
	}
}

func TestQueryBodyTooLarge(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 64})
	big := fmt.Sprintf(`{"log":"fig3","query":%q}`, strings.Repeat("A -> ", 100)+"A")
	rec := postQuery(t, s.Handler(), big, nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
}

func TestQueryTimeout(t *testing.T) {
	// A log big enough that its evaluation cannot finish within a
	// nanosecond; the deadline must surface as 504 and a timeout counter.
	log, err := wlq.ClinicLog(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Timeout: time.Nanosecond})
	if err := s.AddLog("big", "clinic:300:1", log); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rec := postQuery(t, h, `{"log":"big","query":"!GetRefer -> !SeeDoctor -> !CheckIn"}`, nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
	}
	var m metricsDoc
	getJSON(t, h, "/metrics", &m)
	if m.QueryTimeouts.Load() != 1 {
		t.Errorf("query_timeouts = %d, want 1", m.QueryTimeouts.Load())
	}
}

func TestQueryCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	var first, second, commuted queryResponse
	postQuery(t, h, `{"log":"fig3","query":"GetRefer | SeeDoctor"}`, &first)
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	postQuery(t, h, `{"log":"fig3","query":"GetRefer | SeeDoctor"}`, &second)
	if !second.Cached {
		t.Fatal("repeat query missed the cache")
	}
	// Theorems 2–3: the commuted form must share the cache entry.
	postQuery(t, h, `{"log":"fig3","query":"SeeDoctor | GetRefer"}`, &commuted)
	if !commuted.Cached {
		t.Fatal("commuted query missed the cache")
	}
	if second.Count != first.Count || commuted.Count != first.Count {
		t.Fatal("cached results differ from the first evaluation")
	}
	var m metricsDoc
	getJSON(t, h, "/metrics", &m)
	if m.CacheHits.Load() != 2 || m.CacheMisses.Load() != 1 {
		t.Errorf("cache_hits=%d cache_misses=%d, want 2/1", m.CacheHits.Load(), m.CacheMisses.Load())
	}
	if m.CacheEntries != 1 {
		t.Errorf("cache_entries = %d, want 1", m.CacheEntries)
	}
}

func TestQueryNoOptimizeBypassesCache(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	var a, b queryResponse
	postQuery(t, h, `{"log":"fig3","query":"(GetRefer -> CheckIn) | (GetRefer -> SeeDoctor)","no_optimize":true}`, &a)
	postQuery(t, h, `{"log":"fig3","query":"(GetRefer -> CheckIn) | (GetRefer -> SeeDoctor)","no_optimize":true}`, &b)
	if a.Cached || b.Cached {
		t.Fatal("no_optimize queries must bypass the cache")
	}
	// The plan must be the pattern exactly as written (re-rendered with
	// minimal parentheses), not the optimizer's factored form.
	if want := wlq.MustParsePattern(a.Query).String(); a.Plan != want {
		t.Errorf("no_optimize plan %q, want the unoptimized %q", a.Plan, want)
	}
}

func TestQueryMaxResults(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp queryResponse
	postQuery(t, s.Handler(), `{"log":"fig3","query":"GetRefer | SeeDoctor","max_results":1}`, &resp)
	if !resp.Truncated || len(resp.Incidents) != 1 {
		t.Fatalf("truncation failed: truncated=%v incidents=%d", resp.Truncated, len(resp.Incidents))
	}
	if resp.Count <= 1 {
		t.Errorf("count %d should report the full set size", resp.Count)
	}
}

func TestQueryDefaultLogName(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp queryResponse
	rec := postQuery(t, s.Handler(), `{"query":"GetRefer"}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("single-log deployment must accept an empty log name: %d %s", rec.Code, rec.Body)
	}
	if resp.Log != "fig3" {
		t.Errorf("resolved log %q, want fig3", resp.Log)
	}
	// With two logs loaded the name becomes mandatory.
	if err := s.AddLog("fig3b", "builtin:fig3", wlq.ClinicFig3()); err != nil {
		t.Fatal(err)
	}
	rec = postQuery(t, s.Handler(), `{"query":"GetRefer"}`, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("ambiguous empty log name: status %d, want 404", rec.Code)
	}
}

func TestQueryStrategiesAgree(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: -1}) // no cache: force evaluation
	h := s.Handler()
	var merge, naive queryResponse
	postQuery(t, h, `{"log":"fig3","query":"SeeDoctor -> (UpdateRefer -> GetReimburse)","strategy":"merge"}`, &merge)
	postQuery(t, h, `{"log":"fig3","query":"SeeDoctor -> (UpdateRefer -> GetReimburse)","strategy":"naive"}`, &naive)
	if merge.Count != naive.Count {
		t.Fatalf("strategies disagree: merge %d, naive %d", merge.Count, naive.Count)
	}
	if merge.Strategy != "merge" || naive.Strategy != "naive" {
		t.Errorf("strategy echo wrong: %q / %q", merge.Strategy, naive.Strategy)
	}
}

func TestExplain(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp explainResponse
	factorable := "/v1/explain?log=fig3&q=" + "%28GetRefer%20-%3E%20CheckIn%29%20%7C%20%28GetRefer%20-%3E%20SeeDoctor%29"
	rec := getJSON(t, s.Handler(), factorable, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if resp.Before.Cost <= 0 || resp.After.Cost <= 0 {
		t.Errorf("estimates missing: before=%+v after=%+v", resp.Before, resp.After)
	}
	if resp.After.Cost > resp.Before.Cost {
		t.Errorf("optimizer reported a costlier plan: %g -> %g", resp.Before.Cost, resp.After.Cost)
	}
	if !resp.Changed || len(resp.Steps) == 0 {
		t.Errorf("factorable query reported no rewrite: changed=%v steps=%v", resp.Changed, resp.Steps)
	}
	sel := resp.Selectivities
	if sel.Guard <= 0 || sel.Consecutive <= 0 || sel.Sequential <= 0 || sel.Parallel <= 0 {
		t.Errorf("selectivity constants missing from EXPLAIN: %+v", sel)
	}
	if resp.IncidentTree == "" || resp.PaperForm == "" {
		t.Error("incident tree / paper form missing")
	}
	// The scan's candidate instances: every Figure 3 instance has a GetRefer,
	// two a CheckIn or a SeeDoctor, two a GetReimburse, and none a
	// NoSuchActivity.
	for q, want := range map[string]string{
		"GetRefer -> (CheckIn | SeeDoctor)":        "2 of 3 instances",
		"GetRefer -> GetReimburse":                 "2 of 3 instances",
		"NoSuchActivity -> SeeDoctor":              "none",
		"(NoSuchActivity -> SeeDoctor) | GetRefer": "3 of 3 instances",
		"!NoSuchActivity":                          "3 of 3 instances",
	} {
		var resp explainResponse
		if rec := getJSON(t, s.Handler(), "/v1/explain?log=fig3&q="+url.QueryEscape(q), &resp); rec.Code != http.StatusOK || resp.Candidates != want {
			t.Errorf("explain %s: status %d, candidates %q; want %q", q, rec.Code, resp.Candidates, want)
		}
	}
}

// TestStatisticsAnswerIsNamed: a lone unguarded atom counted over the whole
// log is answered from the store's statistics, reading no instance, and
// /v1/explain and the eval span of a served count say so; a guard or an
// operator is counted from the instances' position lists, and so is the
// atom on a fleet of two, whose workers each scan an interval, but not on a
// fleet of one.
func TestStatisticsAnswerIsNamed(t *testing.T) {
	l, err := wlq.ClinicLog(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	single := New(Config{})
	t.Cleanup(func() { single.Close() })
	if err := single.AddLog("clinic", "builtin:clinic", l); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		h    http.Handler
		want map[string]string
	}{
		{"single node", single.Handler(), map[string]string{
			"SeeDoctor":                 "statistics",
			"SeeDoctor[year>=2017]":     "counted",
			"SeeDoctor -> PayTreatment": "counted",
		}},
		{"2 workers", newClusterFixture(t, 2, "clinic", l, nil, nil).coord.Handler(), map[string]string{
			"SeeDoctor": "counted",
		}},
		// One worker's part is the whole log.
		{"1 worker", newClusterFixture(t, 1, "clinic", l, nil, nil).coord.Handler(), map[string]string{
			"SeeDoctor":                 "statistics",
			"SeeDoctor -> PayTreatment": "counted",
		}},
	} {
		for q, want := range c.want {
			var ex explainResponse
			if rec := getJSON(t, c.h, "/v1/explain?log=clinic&q="+url.QueryEscape(q), &ex); rec.Code != http.StatusOK || ex.Answer != want {
				t.Errorf("%s: explain %s: status %d, answer %q; want %q", c.name, q, rec.Code, ex.Answer, want)
			}
			var resp queryResponse
			body := fmt.Sprintf(`{"log":"clinic","query":%q,"mode":"count","trace":true}`, q)
			if rec := postQuery(t, c.h, body, &resp); rec.Code != http.StatusOK || resp.Trace == nil {
				t.Fatalf("%s: %s: status %d: %s", c.name, q, rec.Code, rec.Body)
			}
			evals := findSpans(resp.Trace.Spans, func(sp *obs.Span) bool {
				return sp.Name == "eval" && sp.Worker == "coordinator" || sp.Name == "eval" && sp.Worker == ""
			})
			if len(evals) != 1 || evals[0].Attrs["answer"] != want {
				t.Errorf("%s: a served count of %s: eval spans %v; want one saying answer %q", c.name, q, evals, want)
			}
		}
	}
}

func TestExplainErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if rec := getJSON(t, h, "/v1/explain?log=fig3", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q: status %d, want 400", rec.Code)
	}
	if rec := getJSON(t, h, "/v1/explain?log=nope&q=A", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown log: status %d, want 404", rec.Code)
	}
	if rec := getJSON(t, h, "/v1/explain?log=fig3&q=A+-%3E", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("parse error: status %d, want 400", rec.Code)
	}
}

func TestLogsInventory(t *testing.T) {
	s := newTestServer(t, Config{})
	clinicLog, err := wlq.ClinicLog(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddLog("clinic", "clinic:5:7", clinicLog); err != nil {
		t.Fatal(err)
	}
	var resp logsResponse
	getJSON(t, s.Handler(), "/v1/logs", &resp)
	if len(resp.Logs) != 2 {
		t.Fatalf("%d logs listed, want 2", len(resp.Logs))
	}
	// Sorted by name: clinic before fig3.
	if resp.Logs[0].Name != "clinic" || resp.Logs[1].Name != "fig3" {
		t.Fatalf("inventory order: %+v", resp.Logs)
	}
	fig3 := resp.Logs[1]
	if fig3.Records != 20 || fig3.Instances != 3 || !fig3.Valid {
		t.Errorf("fig3 inventory wrong: %+v", fig3)
	}
	if fig3.Source != "builtin:fig3" {
		t.Errorf("source not echoed: %+v", fig3)
	}
	clinic := resp.Logs[0]
	if clinic.Instances != 5 || clinic.Activities == 0 {
		t.Errorf("clinic inventory wrong: %+v", clinic)
	}
}

// TestInvalidLogServedAndFlagged: a log that breaks Definition 2 is still
// served, and /v1/logs flags it with the first violation its builder found;
// a live log refuses it.
func TestInvalidLogServedAndFlagged(t *testing.T) {
	recs := wlq.ClinicFig3().Records()
	recs[7].Seq += 3 // an is-lsn gap
	var b colstore.Builder
	for _, r := range recs {
		b.Add(r)
	}
	st, invalid := b.Finish()
	if invalid == nil {
		t.Fatal("the builder accepted an is-lsn gap")
	}
	s := New(Config{})
	if err := s.AddStore("bad", "builtin:bad", st, invalid); err != nil {
		t.Fatal(err)
	}
	var resp logsResponse
	getJSON(t, s.Handler(), "/v1/logs", &resp)
	if row := resp.Logs[0]; row.Valid || row.Error != invalid.Error() || row.Records != len(recs) {
		t.Errorf("inventory row %+v, want invalid with %q and %d records", row, invalid, len(recs))
	}
	var out queryResponse
	if rec := postQuery(t, s.Handler(), `{"log":"bad","query":"GetRefer"}`, &out); rec.Code != http.StatusOK || out.Count == 0 {
		t.Errorf("query over the invalid log: %d, %d incidents", rec.Code, out.Count)
	}
	live := New(Config{Ingest: true, WALDir: t.TempDir()})
	t.Cleanup(func() { live.Close() })
	if err := live.AddStore("bad", "builtin:bad", st, invalid); err == nil {
		t.Error("a live log accepted an invalid snapshot")
	}
}

// TestLogsInventoryStaticAndLiveAgree: there is one inventory path — the
// same log served from the columnar store and under -ingest reports the same
// counts, field by field, and they are the log's own.
func TestLogsInventoryStaticAndLiveAgree(t *testing.T) {
	logs := map[string]*wlog.Log{
		"fig3": wlq.ClinicFig3(), // wid 3 is stalled: an incomplete instance
		"generated": gen.MustRandomLog(gen.LogParams{
			Instances: 25, MeanLength: 12, CompleteFraction: 0.6, Seed: 3,
		}),
	}
	for name, l := range logs {
		live := New(Config{Ingest: true, WALDir: t.TempDir()})
		t.Cleanup(func() { live.Close() })
		var rows [2]logDoc
		for i, s := range []*Server{New(Config{}), live} {
			if err := s.AddLog(name, "builtin:"+name, l); err != nil {
				t.Fatal(err)
			}
			var resp logsResponse
			getJSON(t, s.Handler(), "/v1/logs", &resp)
			if len(resp.Logs) != 1 {
				t.Fatalf("%s: %d logs listed, want 1", name, len(resp.Logs))
			}
			rows[i] = resp.Logs[0]
		}
		static, lv := rows[0], rows[1]
		if !lv.Live || lv.IngestLSN != uint64(l.Len()) {
			t.Errorf("%s: live row %+v, want live at lsn %d", name, lv, l.Len())
		}
		lv.Live, lv.IngestLSN = false, 0
		if static != lv {
			t.Errorf("%s: static and live inventories differ\nstatic: %+v\n  live: %+v", name, static, lv)
		}
		want := logDoc{
			Name: name, Source: "builtin:" + name, Valid: true,
			Records: l.Len(), Instances: len(l.WIDs()), Activities: len(l.Activities()),
		}
		for _, wid := range l.WIDs() {
			if l.InstanceComplete(wid) {
				want.CompleteInstances++
			}
		}
		if want.CompleteInstances == want.Instances {
			t.Fatalf("%s: fixture has no incomplete instance", name)
		}
		if static != want {
			t.Errorf("%s: inventory %+v, want %+v", name, static, want)
		}
	}
}

// BenchmarkLogsInventory prices GET /v1/logs on the benchmark's log size.
func BenchmarkLogsInventory(b *testing.B) {
	h := clinicServer(b, Config{}, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/logs", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("%d: %s", rec.Code, rec.Body)
		}
	}
}

func TestAddLogErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	if err := s.AddLog("fig3", "dup", wlq.ClinicFig3()); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := s.AddLog("", "anon", wlq.ClinicFig3()); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.AddLog("nil", "nil", nil); err == nil {
		t.Error("nil log accepted")
	}
}

func TestMetricsDocument(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	postQuery(t, h, `{"log":"fig3","query":"GetRefer"}`, nil)
	postQuery(t, h, `{"log":"fig3","query":"GetRefer"}`, nil)
	postQuery(t, h, `{"log":"fig3","query":"A -> "}`, nil) // parse error
	var m metricsDoc
	getJSON(t, h, "/metrics", &m)
	if m.QueriesTotal.Load() != 3 || m.QueryErrors.Load() != 1 {
		t.Errorf("queries_total=%d query_errors=%d, want 3/1", m.QueriesTotal.Load(), m.QueryErrors.Load())
	}
	if m.LogsLoaded != 1 || m.WorkersPerQuery != 2 {
		t.Errorf("logs_loaded=%d workers=%d", m.LogsLoaded, m.WorkersPerQuery)
	}
	if m.Latency.Count != 3 {
		t.Errorf("latency count %d, want 3 (error paths are latency samples too)", m.Latency.Count)
	}
	if m.IncidentsReturned.Load() == 0 || m.InstancesEvaluated.Load() == 0 {
		t.Errorf("work counters empty: %+v", &m)
	}
	if m.UptimeSeconds < 0 || m.WorkerCapacity <= 0 {
		t.Errorf("gauges wrong: %+v", &m)
	}
}

// TestConcurrentQueries exercises the full handler stack from many
// goroutines against one shared Index; `go test -race` (the CI race step)
// verifies the absence of data races on the cache and metrics.
func TestConcurrentQueries(t *testing.T) {
	log, err := wlq.ClinicLog(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{CacheSize: 8})
	if err := s.AddLog("clinic", "clinic:40:3", log); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	queries := []string{
		`{"log":"clinic","query":"GetRefer -> SeeDoctor"}`,
		`{"log":"clinic","query":"SeeDoctor | CheckIn"}`,
		`{"log":"clinic","query":"CheckIn | SeeDoctor"}`,
		`{"log":"clinic","query":"GetRefer . CheckIn","mode":"count"}`,
		`{"log":"clinic","query":"GetRefer","mode":"exists"}`,
		`{"log":"clinic","query":"bogus ->"}`,
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := queries[(g+i)%len(queries)]
				req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader([]byte(body)))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
					t.Errorf("unexpected status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var m metricsDoc
	getJSON(t, h, "/metrics", &m)
	if m.QueriesTotal.Load() != 16*20 {
		t.Errorf("queries_total = %d, want %d", m.QueriesTotal.Load(), 16*20)
	}
	if m.InflightQueries.Load() != 0 || m.BusyWorkers.Load() != 0 {
		t.Errorf("gauges did not drain: %+v", &m)
	}
}

// TestShardedBusyWorkersGauge holds one instance inside evaluation and
// scrapes /metrics meanwhile: a query whose scan is sharded into chunks keeps
// one goroutine per chunk busy, and the gauge must say so.
func TestShardedBusyWorkersGauge(t *testing.T) {
	log, err := wlq.ClinicLog(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	s := New(Config{Workers: workers})
	if err := s.AddLog("clinic", "clinic:40:3", log); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	eval.SetEvalHook(func(uint64) {
		once.Do(func() {
			close(entered)
			<-release
		})
	})
	defer eval.SetEvalHook(nil)

	done := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/query",
			strings.NewReader(`{"log":"clinic","query":"GetRefer -> SeeDoctor"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		done <- rec.Code
	}()
	<-entered
	var m metricsDoc
	getJSON(t, h, "/metrics", &m)
	if m.BusyWorkers.Load() != workers {
		t.Errorf("busy_workers = %d while a query evaluates, want %d", m.BusyWorkers.Load(), workers)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held query finished with %d", code)
	}
	getJSON(t, h, "/metrics", &m)
	if m.BusyWorkers.Load() != 0 {
		t.Errorf("busy_workers = %d after the query returned, want 0", m.BusyWorkers.Load())
	}
}

func TestServedResultsMatchEngineAcrossStrategies(t *testing.T) {
	// Acceptance: wlq-serve answers match cmd/wlq (the Engine) on the same
	// log/pattern, for both strategies, with and without the cache.
	log, err := wlq.ClinicLog(25, 9)
	if err != nil {
		t.Fatal(err)
	}
	engine := wlq.NewEngine(log)
	for _, cache := range []int{-1, 64} {
		s := New(Config{CacheSize: cache})
		if err := s.AddLog("clinic", "clinic:25:9", log); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for _, q := range []string{
			"GetRefer -> SeeDoctor -> CheckIn",
			"(GetRefer -> CheckIn) | (GetRefer -> SeeDoctor)",
			"GetRefer & SeeDoctor",
		} {
			want, err := engine.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, strategy := range []string{"merge", "naive"} {
				var resp queryResponse
				rec := postQuery(t, h,
					fmt.Sprintf(`{"log":"clinic","query":%q,"strategy":%q}`, q, strategy), &resp)
				if rec.Code != http.StatusOK {
					t.Fatalf("%q/%s: status %d: %s", q, strategy, rec.Code, rec.Body)
				}
				if resp.Count != want.Len() {
					t.Errorf("cache=%d %q/%s: server %d incidents, engine %d",
						cache, q, strategy, resp.Count, want.Len())
				}
			}
		}
	}
}

func TestEvalStrategyZeroValueIsMerge(t *testing.T) {
	// Guards the Config.withDefaults assumption.
	if (Config{}.withDefaults().Strategy) != eval.StrategyMerge {
		t.Fatal("zero Config must default to the merge strategy")
	}
}
