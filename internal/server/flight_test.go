package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wlq"
	"wlq/internal/core/eval"
	"wlq/internal/faultinject"
	"wlq/internal/resilience"
	"wlq/internal/wlog"
)

// Flight-recorder suite. The Chaos-named tests ride the fault-injection seams
// and run under the CI race step.

// listCaptures fetches GET /v1/queries with the given query string.
func listCaptures(t *testing.T, h http.Handler, params string) flightListDoc {
	t.Helper()
	var doc flightListDoc
	rec := getJSON(t, h, "/v1/queries"+params, &doc)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/queries%s: status %d: %s", params, rec.Code, rec.Body)
	}
	return doc
}

// TestFlightRecorderCapturesSlowQueryWithFullTrace is the acceptance path:
// a query slower than the threshold is captured with its complete trace —
// span tree and cost table — even though the request never asked for one.
func TestFlightRecorderCapturesSlowQueryWithFullTrace(t *testing.T) {
	s := newTestServer(t, Config{SlowQuery: time.Nanosecond}) // everything is slow
	h := s.Handler()

	var resp queryResponse
	rec := postQuery(t, h, `{"log":"fig3","query":"UpdateRefer -> GetReimburse"}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body)
	}
	if resp.Trace != nil {
		t.Fatal("response carried a trace the client never requested")
	}

	doc := listCaptures(t, h, "?slow=true")
	if doc.Count != 1 {
		t.Fatalf("slow captures = %d, want 1", doc.Count)
	}
	sum := doc.Queries[0]
	if !sum.Slow || sum.Status != "ok" || !sum.HasTrace {
		t.Fatalf("capture summary = %+v, want slow ok with trace", sum)
	}

	var cap struct {
		ID     uint64 `json:"id"`
		Query  string `json:"query"`
		Plan   string `json:"plan"`
		Status string `json:"status"`
		Trace  *struct {
			Spans     json.RawMessage  `json:"spans"`
			CostTable []map[string]any `json:"cost_table"`
		} `json:"trace"`
	}
	rec = getJSON(t, h, fmt.Sprintf("/v1/queries/%d", sum.ID), &cap)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/queries/%d: status %d: %s", sum.ID, rec.Code, rec.Body)
	}
	if cap.Trace == nil || len(cap.Trace.Spans) == 0 || len(cap.Trace.CostTable) == 0 {
		t.Fatalf("capture %d has no full trace: %s", sum.ID, rec.Body)
	}
	if cap.Query != "UpdateRefer -> GetReimburse" || cap.Plan == "" {
		t.Fatalf("capture = %+v", cap)
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	s := newTestServer(t, Config{FlightRecorderSize: -1})
	h := s.Handler()
	postQuery(t, h, `{"log":"fig3","query":"GetRefer"}`, nil)
	rec := getJSON(t, h, "/v1/queries", nil)
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("disabled recorder: status %d, want 501", rec.Code)
	}
	rec = getJSON(t, h, "/v1/queries/1", nil)
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("disabled recorder get: status %d, want 501", rec.Code)
	}
}

func TestFlightRecorderCapturesParseError(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if rec := postQuery(t, h, `{"log":"fig3","query":"GetRefer ->"}`, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("parse error status %d", rec.Code)
	}
	doc := listCaptures(t, h, "?status=error")
	if doc.Count != 1 || doc.Queries[0].HTTPStatus != http.StatusBadRequest {
		t.Fatalf("error captures = %+v", doc.Queries)
	}
	if doc.Queries[0].Error == "" {
		t.Fatal("error capture carries no failure detail")
	}
}

func TestFlightRecorderCapturesBudgetAbortAndKeepsRegistryClean(t *testing.T) {
	s := newTestServer(t, Config{
		Budget: resilience.Budget{MaxComparisons: 1},
	})
	h := s.Handler()
	rec := postQuery(t, h, `{"log":"fig3","query":"GetRefer -> SeeDoctor"}`, nil)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("budget abort status %d, want 422: %s", rec.Code, rec.Body)
	}
	doc := listCaptures(t, h, "?status=budget")
	if doc.Count != 1 {
		t.Fatalf("budget captures = %d, want 1", doc.Count)
	}
	// Hygiene: the aborted evaluation's truncated answer must not be cached.
	if n := s.cache.len(); n != 0 {
		t.Fatalf("budget-tripped query entered the cache: %d entries", n)
	}
}

func TestChaosFlightRecorderCapturesPanicAndKeepsRegistryClean(t *testing.T) {
	s := New(Config{})
	if err := s.AddLog("chaos", "builtin:chaos", chaosLog(t, 8, 3)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	eval.SetEvalHook(faultinject.PanicOnNth(2, "injected fault"))
	defer eval.SetEvalHook(nil)
	rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicked query status %d, want 500: %s", rec.Code, rec.Body)
	}
	eval.SetEvalHook(nil)
	doc := listCaptures(t, h, "?status=panic")
	if doc.Count != 1 {
		t.Fatalf("panic captures = %d, want 1", doc.Count)
	}
	if !doc.Queries[0].HasTrace {
		t.Fatal("panic capture lost its partial trace")
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("panicked query entered the cache: %d entries", n)
	}
}

func TestChaosFlightRecorderCapturesPartialAndKeepsRegistryClean(t *testing.T) {
	s := shardedChaosServer(t)
	h := s.Handler()
	poisonWIDs(t, 13, 14, 15, 16)
	rec := postQuery(t, h, `{"log":"chaos","query":"A -> B","partial":true}`, nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("degraded partial status %d, want 206: %s", rec.Code, rec.Body)
	}
	eval.SetEvalHook(nil)
	doc := listCaptures(t, h, "?status=partial")
	if doc.Count != 1 {
		t.Fatalf("partial captures = %d, want 1", doc.Count)
	}
	if doc.Queries[0].HTTPStatus != http.StatusPartialContent {
		t.Fatalf("partial capture recorded HTTP %d, want 206", doc.Queries[0].HTTPStatus)
	}
	// Hygiene: a result missing a wid range is neither cached nor counted
	// complete.
	if n := s.cache.len(); n != 0 {
		t.Fatalf("partial result entered the cache: %d entries", n)
	}
	var m metricsDoc
	getJSON(t, h, "/metrics", &m)
	if m.PartialResults.Load() != 1 {
		t.Fatalf("partial_results = %d, want 1", m.PartialResults.Load())
	}
}

func TestFlightRecorderMarksCacheHits(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	postQuery(t, h, `{"log":"fig3","query":"GetRefer"}`, nil)
	postQuery(t, h, `{"log":"fig3","query":"GetRefer"}`, nil)
	doc := listCaptures(t, h, "")
	if doc.Count != 2 {
		t.Fatalf("captures = %d, want 2", doc.Count)
	}
	// Newest first: the second (cached) execution leads.
	if !doc.Queries[0].Cached || doc.Queries[1].Cached {
		t.Fatalf("cache marks wrong: %+v", doc.Queries)
	}
}

func TestFlightListValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, url := range []string{
		"/v1/queries?min_elapsed_ms=x",
		"/v1/queries?slow=maybe",
		"/v1/queries?limit=-2",
		"/v1/queries/notanumber",
	} {
		if rec := getJSON(t, h, url, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
	}
	if rec := getJSON(t, h, "/v1/queries/999", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown capture id: status %d, want 404", rec.Code)
	}
}

// fig3Loader reloads the built-in Figure 3 log, for hot-reload tests.
var fig3Loader = logLoader(func(string) (*wlog.Log, error) { return wlq.ClinicFig3(), nil })

// TestFlightCaptureCarriesReloadGeneration: captures from before and after a
// hot reload coexist in the recorder, told apart by their generation.
func TestFlightCaptureCarriesReloadGeneration(t *testing.T) {
	s := New(Config{Loader: fig3Loader})
	if err := s.AddLog("fig3", "builtin:fig3", wlq.ClinicFig3()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	postQuery(t, h, `{"log":"fig3","query":"GetRefer -> SeeDoctor"}`, nil)
	if _, err := s.ReloadLogs(); err != nil {
		t.Fatal(err)
	}
	// A post-reload execution carries the bumped generation.
	postQuery(t, h, `{"log":"fig3","query":"SeeDoctor -> PayTreatment"}`, nil)
	doc := listCaptures(t, h, "")
	if doc.Queries[0].Generation != 1 {
		t.Fatalf("post-reload capture generation = %d, want 1", doc.Queries[0].Generation)
	}
	if doc.Queries[len(doc.Queries)-1].Generation != 0 {
		t.Fatalf("pre-reload capture generation = %d, want 0", doc.Queries[len(doc.Queries)-1].Generation)
	}
}

// TestChaosFlightRecorderConcurrentWithReload hammers queries, capture reads
// and hot reloads concurrently; run under -race it proves the recorder
// survives reload without locking up or mixing state.
func TestChaosFlightRecorderConcurrentWithReload(t *testing.T) {
	s := New(Config{Loader: fig3Loader})
	if err := s.AddLog("fig3", "builtin:fig3", wlq.ClinicFig3()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				postQuery(t, h, `{"log":"fig3","query":"GetRefer -> SeeDoctor"}`, nil)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				req := httptest.NewRequest(http.MethodGet, "/v1/queries?limit=8", nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("list status %d", rec.Code)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := s.ReloadLogs(); err != nil {
					t.Errorf("reload: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.flight.Captured() == 0 {
		t.Fatal("no captures recorded")
	}
}

// TestMetricsBackendAndFlightFamilies: static and live logs are served from
// one layout, so no backend is named anywhere — not in the exposition, the
// JSON metrics or a capture — and both expose the flight-recorder families.
func TestMetricsBackendAndFlightFamilies(t *testing.T) {
	static := newTestServer(t, Config{})
	live, _ := newIngestServer(t, Config{})
	for name, s := range map[string]*Server{"static": static, "live": live} {
		h := s.Handler()
		postQuery(t, h, `{"log":"fig3","query":"GetRefer -> SeeDoctor"}`, nil)
		body := getJSON(t, h, "/metrics?format=prometheus", nil).Body.String()
		if strings.Contains(body, "wlq_storage_backend") {
			t.Errorf("%s: exposition still names a storage backend", name)
		}
		for _, family := range []string{
			"wlq_flightrec_captured_total 1",
			"wlq_flightrec_entries 1",
		} {
			if !strings.Contains(body, family) {
				t.Errorf("%s: missing family %q in exposition", name, family)
			}
		}
		for _, path := range []string{"/metrics", "/v1/queries"} {
			if body := getJSON(t, h, path, nil).Body.String(); strings.Contains(body, `"backend"`) {
				t.Errorf("%s: %s still carries a backend key: %s", name, path, body)
			}
		}
	}
}
