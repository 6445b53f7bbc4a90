package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/faultinject"
	"wlq/internal/gen"
	"wlq/internal/resilience"
	"wlq/internal/wlog"
)

// Chaos suite: deterministic faults injected through the production seams
// (eval.SetEvalHook, Config.Loader), asserting graceful
// degradation — the right status code, a live health probe, and a clean
// cache — rather than mere survival. Run with the race detector; the CI
// chaos steps (.github/workflows/ci.yml) select these tests by the Chaos and
// Fault in their names.

// chaosLog builds a log heavy enough to trip small budgets: each instance
// interleaves n As and Bs, so "A -> B" performs ~n² comparisons per instance.
func chaosLog(t *testing.T, instances, n int) *wlog.Log {
	t.Helper()
	var b wlog.Builder
	for i := 0; i < instances; i++ {
		wid := b.Start()
		for j := 0; j < n; j++ {
			if err := b.Emit(wid, "A", nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := b.Emit(wid, "B", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.End(wid); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

func newChaosServer(t *testing.T, cfg Config, instances, n int) http.Handler {
	t.Helper()
	s := New(cfg)
	if err := s.AddLog("chaos", "builtin:chaos", chaosLog(t, instances, n)); err != nil {
		t.Fatal(err)
	}
	return s.Handler()
}

// decodeError decodes an error envelope (any non-200 response).
func decodeError(t *testing.T, rec *httptest.ResponseRecorder) errorDoc {
	t.Helper()
	var doc errorDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode error envelope: %v\n%s", err, rec.Body)
	}
	return doc
}

func TestChaosWorkerPanicReturns500AndServiceSurvives(t *testing.T) {
	h := newChaosServer(t, Config{}, 8, 4)
	eval.SetEvalHook(faultinject.PanicOnNth(3, "injected worker fault"))
	defer eval.SetEvalHook(nil)

	rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body)
	}
	doc := decodeError(t, rec)
	if doc.IncidentID == "" {
		t.Fatalf("500 envelope missing incident_id: %s", rec.Body)
	}

	// The process keeps serving: liveness stays green...
	if rec := getJSON(t, h, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", rec.Code)
	}
	// ...and the failed query was not cached: once the fault stops firing
	// (PanicOnNth already fired), the same query succeeds with real results.
	var resp queryResponse
	rec = postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-fault status %d: %s", rec.Code, rec.Body)
	}
	if resp.Cached {
		t.Fatal("first post-fault response claims a cache hit: the panicked query poisoned the cache")
	}
	if resp.Count == 0 {
		t.Fatal("post-fault evaluation returned no incidents")
	}
}

func TestChaosHandlerPanicRecovered(t *testing.T) {
	s := newTestServer(t, Config{})
	// Panic upstream of handleQuery's own isolation: a handler-level fault
	// must be caught by the recoverPanics middleware.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("handler fault")
	})
	h := s.recoverPanics(mux)

	req := httptest.NewRequest(http.MethodGet, "/boom", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if doc := decodeError(t, rec); doc.IncidentID == "" {
		t.Fatalf("recovered panic missing incident_id: %s", rec.Body)
	}
}

func TestChaosBudgetAbortReturns422WithCostTable(t *testing.T) {
	// Naive joins do the full Lemma 1 pairwise work, so a small comparison
	// budget trips deterministically on a ~160k-comparison query.
	h := newChaosServer(t, Config{
		Strategy: eval.StrategyNaive,
		Budget:   resilience.Budget{MaxComparisons: 10_000},
	}, 4, 200)

	rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, nil)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body)
	}
	doc := decodeError(t, rec)
	if doc.BudgetDimension != resilience.DimComparisons {
		t.Fatalf("budget_dimension %q, want %q", doc.BudgetDimension, resilience.DimComparisons)
	}
	if doc.BudgetLimit != 10_000 || doc.BudgetMeasured < doc.BudgetLimit {
		t.Fatalf("implausible budget accounting: limit %d measured %d",
			doc.BudgetLimit, doc.BudgetMeasured)
	}
	// The partial cost table is attached: the client sees which operators
	// consumed the budget before the abort.
	if len(doc.CostTable) == 0 {
		t.Fatalf("422 envelope missing the partial cost table: %s", rec.Body)
	}
	var measured uint64
	for _, row := range doc.CostTable {
		measured += row.Comparisons
	}
	if measured == 0 {
		t.Fatal("partial cost table shows no work: completed operators were not accounted")
	}
}

func TestChaosWallTimeBudgetDeterministic(t *testing.T) {
	// A one-nanosecond budget is a deadline the evaluation's context has
	// passed before the first instance: the trip needs no waiting and no clock.
	h := newChaosServer(t, Config{
		Budget: resilience.Budget{MaxWallTime: time.Nanosecond},
	}, 2, 100)
	rec := postQuery(t, h, `{"log":"chaos","query":"A -> B","workers":1}`, nil)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body)
	}
	if doc := decodeError(t, rec); doc.BudgetDimension != resilience.DimWallTime || len(doc.CostTable) == 0 {
		t.Fatalf("want a wall_time trip with the partial cost table: %s", rec.Body)
	}

	// Through a worker. The budget travels in milliseconds, so it meets a
	// join that runs for seconds: one Theorem 1 instance.
	f := newClusterFixture(t, 1, "adversary", gen.WorstCaseLog(64), nil, func(c *Config) {
		c.Budget = resilience.Budget{MaxWallTime: time.Millisecond}
	})
	rec = postQuery(t, f.coord.Handler(), `{"log":"adversary","query":"t & t & t & t","mode":"count"}`, nil)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("through a worker: status %d, want 422: %s", rec.Code, rec.Body)
	}
	if doc := decodeError(t, rec); doc.BudgetDimension != resilience.DimWallTime || len(doc.CostTable) == 0 {
		t.Fatalf("through a worker: want a wall_time trip with the partial cost table: %s", rec.Body)
	}
}

// TestChaosDeadlineStopsAJoin: one Theorem 1 instance (m = 64, "t & t & t &
// t") holds its query inside the joins for seconds. The request's deadline
// and its client's disconnect both reach into the join: a 50 ms timeout
// answers 504 within a second, and a client that goes away mid-join frees
// its admission slot within a second.
func TestChaosDeadlineStopsAJoin(t *testing.T) {
	s := New(Config{CacheSize: -1})
	if err := s.AddLog("adversary", "builtin:worst-case", gen.WorstCaseLog(64)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const query = `"log":"adversary","query":"t & t & t & t","mode":"count","workers":1`

	start := time.Now()
	rec := postQuery(t, h, `{`+query+`,"timeout_ms":50}`, nil)
	if took := time.Since(start); rec.Code != http.StatusGatewayTimeout || took > time.Second {
		t.Fatalf("timeout_ms 50: status %d after %v, want 504 within 1s: %s", rec.Code, took, rec.Body)
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	entered := make(chan struct{})
	var once sync.Once
	eval.SetEvalHook(func(uint64) { once.Do(func() { close(entered) }) })
	defer eval.SetEvalHook(nil)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/query", strings.NewReader(`{`+query+`}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := srv.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // past the per-instance check: only the join can see the cancel
	cancel()
	<-done
	gone := time.Now()
	for s.admission.InFlight() != 0 {
		if time.Since(gone) > time.Second {
			t.Fatalf("admission_in_flight %d a second after the client left", s.admission.InFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestChaosAdmissionControlSheds429(t *testing.T) {
	h := newChaosServer(t, Config{MaxInFlight: 1}, 4, 4)

	// Block the first query inside evaluation (only the first: the hook
	// fires once), then probe with a second while the slot is held.
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

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/query",
			strings.NewReader(`{"log":"chaos","query":"A -> B","workers":1}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		firstDone <- rec
	}()
	<-entered

	rec := postQuery(t, h, `{"log":"chaos","query":"A . B"}`, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	if doc := decodeError(t, rec); doc.RetryAfterSeconds <= 0 {
		t.Fatalf("429 envelope missing retry_after_seconds: %s", rec.Body)
	}

	// Shedding is not failure: the admitted query completes once unblocked,
	// and the freed slot admits new work.
	close(release)
	if first := <-firstDone; first.Code != http.StatusOK {
		t.Fatalf("admitted query finished with %d: %s", first.Code, first.Body)
	}
	if rec := postQuery(t, h, `{"log":"chaos","query":"A . B"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("query after slot release: %d: %s", rec.Code, rec.Body)
	}
}

func TestChaosTimeoutNotCached(t *testing.T) {
	s := New(Config{Timeout: 5 * time.Millisecond})
	if err := s.AddLog("chaos", "builtin:chaos", chaosLog(t, 8, 4)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Stall every instance evaluation past the timeout, fail the query...
	eval.SetEvalHook(func(uint64) { time.Sleep(20 * time.Millisecond) })
	rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
	}

	// ...then re-issue it healthy: the 504 must not have cached a partial
	// (or empty) result. A fresh evaluation — not a cache hit — answers.
	eval.SetEvalHook(nil)
	var resp queryResponse
	rec = postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry status %d: %s", rec.Code, rec.Body)
	}
	if resp.Cached {
		t.Fatal("timed-out query poisoned the result cache")
	}
	if resp.Count == 0 {
		t.Fatal("retry returned no incidents")
	}
	// The clean result IS cached for the next client.
	rec = postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, &resp)
	if rec.Code != http.StatusOK || !resp.Cached {
		t.Fatalf("clean result not cached: status %d cached %v", rec.Code, resp.Cached)
	}
}

func TestChaosPreflightCostCeiling(t *testing.T) {
	h := newChaosServer(t, Config{MaxPredictedCost: 1}, 4, 50)
	rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, nil)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body)
	}
	doc := decodeError(t, rec)
	if doc.PredictedCost <= doc.CostCeiling {
		t.Fatalf("rejection without predicted > ceiling: %+v", doc)
	}
	// Metrics tell shed-by-cost apart from budget aborts.
	var m metricsDoc
	if rec := getJSON(t, h, "/metrics", &m); rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if m.CostRejected.Load() != 1 || m.BudgetAborts.Load() != 0 {
		t.Fatalf("cost_rejected %d budget_aborts %d, want 1 and 0",
			m.CostRejected.Load(), m.BudgetAborts.Load())
	}
}

func TestChaosReloadQuarantineKeepsLastGood(t *testing.T) {
	goodLoads := 0
	fail := false
	cfg := Config{Loader: logLoader(func(spec string) (*wlog.Log, error) {
		if fail {
			return nil, fmt.Errorf("source unreadable: %w", faultinject.ErrInjected)
		}
		goodLoads++
		return chaosLog(t, 2, 2), nil
	})}
	s := New(cfg)
	if err := s.AddLog("chaos", "builtin:chaos", chaosLog(t, 2, 2)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// A clean reload bumps the generation.
	req := httptest.NewRequest(http.MethodPost, "/v1/reload", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: %d: %s", rec.Code, rec.Body)
	}
	var res ReloadResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Reloaded) != 1 || len(res.Quarantined) != 0 || goodLoads != 1 {
		t.Fatalf("clean reload: %+v (loads %d)", res, goodLoads)
	}

	// A failing reload quarantines: the error is reported, the last-good
	// snapshot keeps serving, and readiness degrades without going red.
	fail = true
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reload", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("failed reload not quarantined: %+v", res)
	}
	var resp queryResponse
	if rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, &resp); rec.Code != http.StatusOK {
		t.Fatalf("query against quarantined log: %d", rec.Code)
	}
	var ready map[string]any
	if rec := getJSON(t, h, "/readyz", &ready); rec.Code != http.StatusOK {
		t.Fatalf("readyz went red on quarantine: %d", rec.Code)
	}
	if ready["status"] != "degraded" {
		t.Fatalf("readyz status %v, want degraded", ready["status"])
	}

	// Recovery clears the quarantine.
	fail = false
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reload", nil))
	var recovered ReloadResult
	if err := json.Unmarshal(rec.Body.Bytes(), &recovered); err != nil {
		t.Fatal(err)
	}
	if len(recovered.Reloaded) != 1 || len(recovered.Quarantined) != 0 {
		t.Fatalf("recovery reload: %+v", recovered)
	}
	if rec := getJSON(t, h, "/readyz", &ready); ready["status"] != "ready" {
		t.Fatalf("readyz after recovery: %d %v", rec.Code, ready["status"])
	}
}

func TestChaosReloadInvalidatesCacheByGeneration(t *testing.T) {
	// The served log changes across reloads; cached results from the old
	// generation must not answer queries against the new one.
	big := false
	cfg := Config{Loader: logLoader(func(spec string) (*wlog.Log, error) {
		if big {
			return chaosLog(t, 4, 2), nil
		}
		return chaosLog(t, 2, 2), nil
	})}
	s := New(cfg)
	if err := s.AddLog("chaos", "builtin:chaos", chaosLog(t, 2, 2)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	var before queryResponse
	postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, &before) // warm the cache
	if rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, &before); !before.Cached {
		t.Fatalf("warmup did not cache: %s", rec.Body)
	}

	big = true
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: %d", rec.Code)
	}

	var after queryResponse
	if rec := postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, &after); rec.Code != http.StatusOK {
		t.Fatalf("post-reload query: %d", rec.Code)
	}
	if after.Cached {
		t.Fatal("post-reload query answered from the pre-reload cache")
	}
	if after.Count <= before.Count {
		t.Fatalf("post-reload count %d not above pre-reload %d: stale data",
			after.Count, before.Count)
	}
}

func TestChaosReloadNotConfigured(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reload", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("reload without loader: %d, want 501", rec.Code)
	}
}

func TestChaosMetricsCountFaults(t *testing.T) {
	h := newChaosServer(t, Config{
		Strategy: eval.StrategyNaive,
		Budget:   resilience.Budget{MaxComparisons: 5000},
	}, 4, 200)
	eval.SetEvalHook(faultinject.PanicOnNth(1, "fault"))
	// The panic request is a bare atom: it charges no comparisons, so only
	// the panic can fail it. (With an operator a sibling eval goroutine could
	// trip the budget as well, and the trip would fail the query — a panic
	// only excludes its instance — but this test counts faults, not their
	// ranking.)
	postQuery(t, h, `{"log":"chaos","query":"A"}`, nil) // panic -> 500
	eval.SetEvalHook(nil)
	postQuery(t, h, `{"log":"chaos","query":"A -> B"}`, nil) // budget -> 422

	var m metricsDoc
	if rec := getJSON(t, h, "/metrics", &m); rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if m.PanicsRecovered.Load() != 1 {
		t.Errorf("panics_recovered = %d, want 1", m.PanicsRecovered.Load())
	}
	if m.BudgetAborts.Load() != 1 {
		t.Errorf("budget_aborts = %d, want 1", m.BudgetAborts.Load())
	}
	if m.AdmissionCapacity != DefaultMaxInFlight {
		t.Errorf("admission_capacity = %d, want %d", m.AdmissionCapacity, DefaultMaxInFlight)
	}
}
