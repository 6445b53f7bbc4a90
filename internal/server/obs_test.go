package server

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"wlq"
	"wlq/internal/core/pattern"
)

// TestQueryTraceResponse: "trace": true returns the span tree and a cost
// table where (under the naive strategy) every operator row satisfies the
// Lemma 1 bound — and traced queries bypass the result cache.
func TestQueryTraceResponse(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	body := `{"log":"fig3","query":"(GetRefer -> GetReimburse) | (SeeDoctor & CheckIn)","strategy":"naive","trace":true}`

	var resp queryResponse
	rec := postQuery(t, h, body, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if resp.Trace == nil {
		t.Fatal("no trace in response")
	}
	if resp.Trace.Spans == nil {
		t.Fatal("trace has no span tree")
	}
	names := make(map[string]bool)
	for _, c := range resp.Trace.Spans.Children {
		names[c.Name] = true
	}
	for _, want := range []string{"parse", "canonicalize", "rewrite", "eval"} {
		if !names[want] {
			t.Errorf("missing pipeline span %q (have %v)", want, names)
		}
	}
	if len(resp.Trace.CostTable) == 0 {
		t.Fatal("empty cost table")
	}
	operators := 0
	for _, row := range resp.Trace.CostTable {
		if row.Op == "atom" {
			continue
		}
		operators++
		if row.Predicted == 0 && row.Outputs > 0 {
			t.Errorf("%s: outputs with zero predicted bound", row.Node)
		}
		if row.Comparisons > row.Predicted {
			t.Errorf("%s: measured %d > predicted %d under naive", row.Node, row.Comparisons, row.Predicted)
		}
		if row.Bound == "" {
			t.Errorf("%s: no bound formula", row.Node)
		}
	}
	if operators == 0 {
		t.Error("cost table has no operator rows")
	}

	// A repeat of the same traced query must not come from the cache.
	var again queryResponse
	postQuery(t, h, body, &again)
	if again.Cached {
		t.Error("traced query served from cache")
	}
	if again.Trace == nil || len(again.Trace.CostTable) == 0 {
		t.Error("repeated traced query lost its trace")
	}

	// Untraced responses must not carry a trace.
	var plain queryResponse
	postQuery(t, h, `{"log":"fig3","query":"GetRefer"}`, &plain)
	if plain.Trace != nil {
		t.Error("untraced query has a trace")
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	empty := New(Config{})
	h := empty.Handler()
	if rec := getJSON(t, h, "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz on empty server = %d, want 200", rec.Code)
	}
	rec := getJSON(t, h, "/readyz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz with no logs = %d, want 503", rec.Code)
	}

	loaded := newTestServer(t, Config{})
	h = loaded.Handler()
	var doc map[string]any
	if rec := getJSON(t, h, "/readyz", &doc); rec.Code != http.StatusOK {
		t.Errorf("readyz with logs = %d, want 200", rec.Code)
	} else if doc["status"] != "ready" {
		t.Errorf("readyz doc = %v", doc)
	}
}

// promLine matches one exposition sample: name, optional labels (values
// escaped per the text format: only \\, \" and \n after a backslash, no bare
// quote), value.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{` + promLabel + `(,` + promLabel + `)*\})? [0-9eE.+-]+$`)

const promLabel = `[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\[\\"n])*"`

// TestPrometheusExposition is the CI smoke test for the text exposition:
// every line parses, TYPE/HELP appear exactly once per family, and the
// expected families are present.
func TestPrometheusExposition(t *testing.T) {
	// An ingest server, so the exposition carries log-name labels; one log's
	// name needs every escape the text format defines.
	s, _ := newIngestServer(t, Config{})
	if err := s.AddLog("a\"b\\c\nd", "builtin:fig3", wlq.ClinicFig3()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	postQuery(t, h, `{"log":"fig3","query":"UpdateRefer -> GetReimburse"}`, nil)
	postQuery(t, h, `{"log":"fig3","query":"broken ->"}`, nil) // error path

	req := httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}

	types := make(map[string]int)
	helps := make(map[string]int)
	samples := make(map[string]int)
	for _, line := range strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			types[fields[2]]++
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Errorf("malformed HELP line %q", line)
				continue
			}
			helps[fields[2]]++
		default:
			if !promLine.MatchString(line) {
				t.Errorf("unparsable sample line %q", line)
				continue
			}
			name := line[:strings.IndexAny(line, "{ ")]
			samples[name]++
		}
	}
	for name, n := range types {
		if n != 1 {
			t.Errorf("TYPE for %s appears %d times", name, n)
		}
		if helps[name] != 1 {
			t.Errorf("HELP for %s appears %d times", name, helps[name])
		}
	}
	for _, want := range []string{
		"wlq_queries_total", "wlq_query_errors_total", "wlq_slow_queries_total",
		"wlq_cache_hits_total", "wlq_operator_comparisons_total",
		"wlq_query_duration_seconds",
	} {
		if types[want] == 0 {
			t.Errorf("missing metric family %s", want)
		}
	}
	// Two requests → histogram count 2, all sample names prefixed.
	for name := range samples {
		if !strings.HasPrefix(name, "wlq_") {
			t.Errorf("sample %s lacks the wlq_ prefix", name)
		}
	}
	if want := `wlq_ingest_last_lsn{log="a\"b\\c\nd"} `; !strings.Contains(rec.Body.String(), want) {
		t.Errorf("exposition lacks the escaped log label %q", want)
	}
	if samples["wlq_operator_comparisons_total"] != 4 {
		t.Errorf("operator comparisons has %d samples, want 4 (one per operator)",
			samples["wlq_operator_comparisons_total"])
	}
	if got := getJSON(t, h, "/metrics?format=bogus", nil); got.Code != http.StatusBadRequest {
		t.Errorf("bogus format = %d, want 400", got.Code)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := newTestServer(t, Config{SlowQuery: time.Nanosecond, Logger: logger})
	h := s.Handler()
	postQuery(t, h, `{"log":"fig3","query":"GetRefer -> CompleteRefer"}`, nil)
	if !strings.Contains(buf.String(), "slow query") {
		t.Errorf("no slow-query warning in log:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "GetRefer -> CompleteRefer") {
		t.Errorf("slow-query warning lacks the query text:\n%s", buf.String())
	}
	var m metricsDoc
	getJSON(t, h, "/metrics", &m)
	if m.SlowQueries.Load() == 0 {
		t.Error("slow_queries counter not bumped")
	}
}

func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil)) // default level: Info
	s := newTestServer(t, Config{Logger: logger})
	h := s.Handler()
	postQuery(t, h, `{"log":"fig3","query":"GetRefer"}`, nil)
	getJSON(t, h, "/healthz", nil)
	text := buf.String()
	if !strings.Contains(text, "msg=request") || !strings.Contains(text, "path=/v1/query") {
		t.Errorf("no request line for /v1/query:\n%s", text)
	}
	if !strings.Contains(text, "status=200") {
		t.Errorf("request line lacks status:\n%s", text)
	}
	if strings.Contains(text, "path=/healthz") {
		t.Errorf("healthz probe logged at Info:\n%s", text)
	}
}

func TestPprofToggle(t *testing.T) {
	on := newTestServer(t, Config{EnablePprof: true})
	if rec := getJSON(t, on.Handler(), "/debug/pprof/", nil); rec.Code != http.StatusOK {
		t.Errorf("pprof enabled: index = %d, want 200", rec.Code)
	}
	off := newTestServer(t, Config{})
	if rec := getJSON(t, off.Handler(), "/debug/pprof/", nil); rec.Code != http.StatusNotFound {
		t.Errorf("pprof disabled: index = %d, want 404", rec.Code)
	}
}

// TestConcurrentMetricsScrape hammers the handler with queries (some traced,
// some erroneous) while scraping both metric formats — `go test -race`
// verifies the snapshot path holds no torn reads.
func TestConcurrentMetricsScrape(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 4})
	h := s.Handler()
	queries := []string{
		`{"log":"fig3","query":"GetRefer -> GetReimburse","trace":true,"strategy":"naive"}`,
		`{"log":"fig3","query":"SeeDoctor & CheckIn"}`,
		`{"log":"fig3","query":"GetRefer | SeeDoctor"}`,
		`{"log":"fig3","query":"oops ->"}`,
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/query",
					strings.NewReader(queries[(w+i)%len(queries)]))
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, url := range []string{"/metrics", "/metrics?format=prometheus"} {
					req := httptest.NewRequest(http.MethodGet, url, nil)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("%s = %d", url, rec.Code)
					}
				}
			}
		}()
	}
	wg.Wait()

	var m metricsDoc
	getJSON(t, h, "/metrics", &m)
	if m.QueriesTotal.Load() != 200 {
		t.Errorf("queries_total = %d, want 200", m.QueriesTotal.Load())
	}
	if m.Latency.Count != 200 {
		t.Errorf("latency count = %d, want 200 (every path observed)", m.Latency.Count)
	}
	if m.OperatorComparisons[pattern.OpSequential].Load() == 0 {
		t.Errorf("no sequential comparisons recorded: %s", getJSON(t, h, "/metrics", nil).Body)
	}
}
