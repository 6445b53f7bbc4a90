package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wlq"
	"wlq/internal/flightrec"
	"wlq/internal/wlog"
)

// newIngestServer serves Figure 3 as a live log with a WAL under a fresh
// temp directory (returned so a second server can recover from it).
func newIngestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.WALDir == "" {
		cfg.WALDir = t.TempDir()
	}
	cfg.Ingest = true
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	if err := s.AddLog("fig3", "builtin:fig3", wlq.ClinicFig3()); err != nil {
		t.Fatal(err)
	}
	return s, cfg.WALDir
}

// postAppend sends a JSONL body to POST /v1/logs/{name}/append.
func postAppend(t *testing.T, h http.Handler, log, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/logs/"+log+"/append", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode append response: %v\n%s", err, rec.Body)
		}
	}
	return rec
}

func TestAppendRoundtrip(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	h := s.Handler()

	// Figure 3 ends at lsn 20 with wid 3 stalled after GetRefer (seq 2).
	// Drive wid 3 forward: the appended records must be queryable at once.
	var resp appendResponse
	rec := postAppend(t, h, "fig3",
		`{"lsn":21,"wid":3,"seq":3,"act":"CheckIn"}
{"lsn":22,"wid":3,"seq":4,"act":"SeeDoctor"}
`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("append: status %d: %s", rec.Code, rec.Body)
	}
	if resp.Appended != 2 || resp.FirstLSN != 21 || resp.LastLSN != 22 {
		t.Fatalf("append response: %+v", resp)
	}

	var q queryResponse
	postQuery(t, h, `{"log":"fig3","query":"CheckIn -> SeeDoctor","mode":"instances"}`, &q)
	found := false
	for _, wid := range q.Instances {
		if wid == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("appended records invisible to queries: instances %v", q.Instances)
	}

	// /v1/logs reports the entry as live with the new watermark and counts.
	var logs logsResponse
	getJSON(t, h, "/v1/logs", &logs)
	if len(logs.Logs) != 1 {
		t.Fatalf("logs: %+v", logs)
	}
	doc := logs.Logs[0]
	if !doc.Live || doc.IngestLSN != 22 || doc.Records != 22 {
		t.Errorf("live log doc: live=%v ingest_lsn=%d records=%d", doc.Live, doc.IngestLSN, doc.Records)
	}
}

func TestAppendLSNAutoAssign(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	var resp appendResponse
	rec := postAppend(t, s.Handler(), "fig3", `{"wid":4,"seq":1,"act":"START"}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("append: status %d: %s", rec.Code, rec.Body)
	}
	if resp.LastLSN != 21 {
		t.Fatalf("auto-assigned lsn %d, want 21", resp.LastLSN)
	}
}

func TestAppendRejectNamesRecord(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	h := s.Handler()

	// Seq 9 is a gap for wid 3 (its last seq is 2): a Definition 2 violation.
	req := httptest.NewRequest(http.MethodPost, "/v1/logs/fig3/append",
		strings.NewReader(`{"lsn":21,"wid":3,"seq":9,"act":"CheckIn"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body)
	}
	var doc errorDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Record == "" || !strings.Contains(doc.Record, "wid=3") {
		t.Errorf("422 does not name the offending record: %+v", doc)
	}

	// A mid-batch rejection reports the durable prefix.
	rec = postAppend(t, h, "fig3",
		`{"lsn":21,"wid":3,"seq":3,"act":"CheckIn"}
{"lsn":22,"wid":3,"seq":9,"act":"SeeDoctor"}
`, nil)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body)
	}
	doc = errorDoc{}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Accepted != 1 || doc.LastLSN != 21 {
		t.Errorf("mid-batch 422 must report the durable prefix: %+v", doc)
	}
}

func TestAppendErrors(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	h := s.Handler()
	for _, tc := range []struct {
		name, log, body string
		want            int
	}{
		{"unknown log", "nope", `{"wid":4,"seq":1,"act":"START"}`, http.StatusNotFound},
		{"empty body", "fig3", "", http.StatusBadRequest},
		{"malformed JSON", "fig3", `{"wid":`, http.StatusBadRequest},
	} {
		rec := postAppend(t, h, tc.log, tc.body, nil)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body)
		}
	}

	// A static server (no -ingest) has no append route at all.
	static := newTestServer(t, Config{})
	rec := postAppend(t, static.Handler(), "fig3", `{"wid":4,"seq":1,"act":"START"}`, nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("append on non-ingest server: status %d, want 404", rec.Code)
	}
}

func TestAppendBackpressure(t *testing.T) {
	s, _ := newIngestServer(t, Config{IngestQueue: 1})
	h := s.Handler()

	// Saturate the one-slot apply queue out-of-band, then append: the request
	// must shed with 429 and a Retry-After header, not block.
	s.mu.RLock()
	adm := s.logs["fig3"].live.Admission()
	s.mu.RUnlock()
	if !adm.TryAcquire() {
		t.Fatal("could not take the only admission slot")
	}
	defer adm.Release()

	rec := postAppend(t, h, "fig3", `{"wid":4,"seq":1,"act":"START"}`, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
}

// TestAppendDeltaInvalidation proves the cache invalidation is a delta, not
// a flush: an append drops exactly the cached results whose atom sets could
// match the new record, and keeps the rest warm.
func TestAppendDeltaInvalidation(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	h := s.Handler()

	const relevant = `{"log":"fig3","query":"CheckIn -> SeeDoctor"}`
	const negated = `{"log":"fig3","query":"GetRefer . !CheckIn"}`
	const irrelevant = `{"log":"fig3","query":"UpdateRefer -> GetReimburse"}`
	for _, q := range []string{relevant, negated, irrelevant} {
		if rec := postQuery(t, h, q, nil); rec.Code != http.StatusOK {
			t.Fatalf("warm %s: status %d: %s", q, rec.Code, rec.Body)
		}
	}

	hits := func() uint64 {
		var m metricsDoc
		getJSON(t, h, "/metrics", &m)
		return m.CacheHits.Load()
	}
	base := hits()

	// CheckIn matches the relevant query's positive CheckIn atom. It matches
	// neither UpdateRefer/GetReimburse (irrelevant) nor ¬CheckIn (negated):
	// those two entries must survive the append.
	rec := postAppend(t, h, "fig3", `{"lsn":21,"wid":3,"seq":3,"act":"CheckIn"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("append: %d: %s", rec.Code, rec.Body)
	}
	postQuery(t, h, irrelevant, nil)
	postQuery(t, h, negated, nil)
	if got := hits(); got != base+2 {
		t.Errorf("untouched queries after CheckIn append: hits %d, want %d (entry was dropped)", got, base+2)
	}
	postQuery(t, h, relevant, nil)
	if got := hits(); got != base+2 {
		t.Errorf("relevant query after CheckIn append: hits %d, want %d (stale entry served)", got, base+2)
	}

	// SeeDoctor is matched by the negated query's ¬CheckIn atom (any
	// activity but CheckIn), while still touching neither irrelevant atom.
	rec = postAppend(t, h, "fig3", `{"lsn":22,"wid":3,"seq":4,"act":"SeeDoctor"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("append: %d: %s", rec.Code, rec.Body)
	}
	postQuery(t, h, irrelevant, nil)
	if got := hits(); got != base+3 {
		t.Errorf("irrelevant query after SeeDoctor append: hits %d, want %d", got, base+3)
	}
	postQuery(t, h, negated, nil)
	if got := hits(); got != base+3 {
		t.Errorf("negated query after SeeDoctor append: hits %d, want %d (stale entry served)", got, base+3)
	}

	// And the re-evaluated relevant result reflects the appends.
	var q queryResponse
	postQuery(t, h, `{"log":"fig3","query":"CheckIn -> SeeDoctor","mode":"count"}`, &q)
	if q.Count < 1 {
		t.Errorf("re-evaluated result misses the appended records: %+v", q)
	}

	var m metricsDoc
	getJSON(t, h, "/metrics", &m)
	if m.Ingest == nil || m.Ingest.CacheInvalidations.Load() == 0 {
		t.Errorf("ingest metrics missing invalidations: %+v", m.Ingest)
	}
}

// TestAppendRecovery is the in-process twin of scripts/ingest_crash_smoke.sh:
// a second server opening the same WAL directory over the same base snapshot
// must recover every acknowledged append.
func TestAppendRecovery(t *testing.T) {
	s1, walDir := newIngestServer(t, Config{})
	rec := postAppend(t, s1.Handler(), "fig3",
		`{"lsn":21,"wid":3,"seq":3,"act":"CheckIn"}
{"lsn":22,"wid":3,"seq":4,"act":"SeeDoctor"}
{"lsn":23,"wid":4,"seq":1,"act":"START"}
`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("append: %d: %s", rec.Code, rec.Body)
	}
	// Every record is already durable (default PolicyAlways fsyncs per
	// append); Close only releases the handles. The kill -9 variant of this
	// test is scripts/ingest_crash_smoke.sh.
	s1.Close()

	s2, _ := newIngestServer(t, Config{WALDir: walDir})
	var logs logsResponse
	getJSON(t, s2.Handler(), "/v1/logs", &logs)
	if logs.Logs[0].IngestLSN != 23 {
		t.Fatalf("recovered watermark %d, want 23", logs.Logs[0].IngestLSN)
	}
	var q queryResponse
	postQuery(t, s2.Handler(), `{"log":"fig3","query":"CheckIn -> SeeDoctor","mode":"instances"}`, &q)
	found := false
	for _, wid := range q.Instances {
		if wid == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered server lost acknowledged appends: %v", q.Instances)
	}

	var m metricsDoc
	getJSON(t, s2.Handler(), "/metrics", &m)
	if m.Ingest == nil || m.Ingest.Replayed != 3 {
		t.Errorf("recovery replay count: %+v", m.Ingest)
	}
}

// TestReloadReplaysWAL regression-tests the reload-vs-append hole: a hot
// reload rebuilds the snapshot, and the WAL's acknowledged appends must be
// replayed on top rather than silently dropped.
func TestReloadReplaysWAL(t *testing.T) {
	s, _ := newIngestServer(t, Config{
		Loader: logLoader(func(string) (*wlq.Log, error) { return wlq.ClinicFig3(), nil }),
	})
	h := s.Handler()
	rec := postAppend(t, h, "fig3", `{"lsn":21,"wid":3,"seq":3,"act":"CheckIn"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("append: %d: %s", rec.Code, rec.Body)
	}

	res, err := s.ReloadLogs()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 || len(res.Reloaded) != 1 {
		t.Fatalf("reload: %+v", res)
	}

	var logs logsResponse
	getJSON(t, h, "/v1/logs", &logs)
	if logs.Logs[0].IngestLSN != 21 {
		t.Fatalf("reload dropped the acknowledged append: watermark %d, want 21", logs.Logs[0].IngestLSN)
	}

	// And the reloaded live entry still accepts appends at the watermark.
	rec = postAppend(t, h, "fig3", `{"lsn":22,"wid":3,"seq":4,"act":"SeeDoctor"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("append after reload: %d: %s", rec.Code, rec.Body)
	}
}

func TestReloadConflictQuarantinesLiveLog(t *testing.T) {
	// The reloaded snapshot omits wid 3 entirely, so the WAL's appended
	// wid-3 record cannot legally follow it: the log must quarantine and
	// keep serving the last-good live state.
	var kept []wlog.Record
	for _, r := range wlq.ClinicFig3().Records() {
		if r.WID != 3 {
			r.LSN = uint64(len(kept) + 1)
			kept = append(kept, r)
		}
	}
	conflicting := wlog.MustNew(kept)
	s, _ := newIngestServer(t, Config{
		Loader: logLoader(func(string) (*wlog.Log, error) { return conflicting, nil }),
	})
	h := s.Handler()
	rec := postAppend(t, h, "fig3", `{"lsn":21,"wid":3,"seq":3,"act":"CheckIn"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("append: %d: %s", rec.Code, rec.Body)
	}

	res, rerr := s.ReloadLogs()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if _, ok := res.Quarantined["fig3"]; !ok {
		t.Fatalf("conflicting reload not quarantined: %+v", res)
	}

	// Served state is untouched: the appended record is still queryable.
	var logs logsResponse
	getJSON(t, h, "/v1/logs", &logs)
	if logs.Logs[0].IngestLSN != 21 {
		t.Errorf("quarantined reload disturbed the live state: watermark %d", logs.Logs[0].IngestLSN)
	}
}

func TestCaptureCarriesIngestLSN(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	h := s.Handler()
	postAppend(t, h, "fig3", `{"lsn":21,"wid":3,"seq":3,"act":"CheckIn"}`, nil)
	postQuery(t, h, `{"log":"fig3","query":"CheckIn -> SeeDoctor"}`, nil)

	caps := s.flight.List(flightrec.Filter{})
	if len(caps) == 0 {
		t.Fatal("no captures recorded")
	}
	if caps[0].IngestLSN != 21 {
		t.Errorf("capture ingest_lsn %d, want 21", caps[0].IngestLSN)
	}
}

func TestIngestPrometheusExposition(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	h := s.Handler()
	postAppend(t, h, "fig3", `{"lsn":21,"wid":3,"seq":3,"act":"CheckIn"}`, nil)

	req := httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"wlq_ingest_appends_total 1",
		"wlq_ingest_replayed_total",
		`wlq_ingest_last_lsn{log="fig3"} 21`,
		"wlq_ingest_wal_fsyncs_total",
		"wlq_ingest_fsync_duration_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestConcurrentAppendAndQuery exercises the append path against concurrent
// queries (run under -race in CI): each query pins one store version while
// appends publish new ones.
func TestConcurrentAppendAndQuery(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	h := s.Handler()

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Drive a fresh instance forward one record at a time.
		body := `{"wid":4,"seq":1,"act":"START"}`
		for seq := 2; seq <= 40; seq++ {
			if rec := postAppend(t, h, "fig3", body, nil); rec.Code != http.StatusOK {
				t.Errorf("append: %d: %s", rec.Code, rec.Body)
				return
			}
			body = `{"wid":4,"seq":` + strconv.Itoa(seq) + `,"act":"SeeDoctor"}`
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				rec := postQuery(t, h, `{"log":"fig3","query":"SeeDoctor -> SeeDoctor","mode":"count"}`, nil)
				if rec.Code != http.StatusOK {
					t.Errorf("query: %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
}

func TestIngestConfigErrors(t *testing.T) {
	// No WALDir: AddLog must fail rather than serve a log whose appends
	// would not be durable.
	s := New(Config{Ingest: true})
	if err := s.AddLog("fig3", "builtin:fig3", wlq.ClinicFig3()); err == nil {
		t.Error("AddLog with empty WALDir succeeded")
	}
	// Ingest on a cluster node is a construction-time contradiction.
	defer func() {
		if recover() == nil {
			t.Error("New(Ingest+WorkerMode) did not panic")
		}
	}()
	New(Config{Ingest: true, WorkerMode: true})
}

// blockedWriter is a client that has stopped reading: the first Write of the
// response body parks until released.
type blockedWriter struct {
	*httptest.ResponseRecorder
	writing chan struct{} // closed when the body write has begun
	release chan struct{}
	once    sync.Once
}

func (w *blockedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.release
	return w.ResponseRecorder.Write(p)
}

// TestSlowReaderDoesNotStallAppends: a query reads the version it pinned
// without a lock — while a query's body is stuck on a client that is not
// reading, an append to the same log is still acknowledged.
func TestSlowReaderDoesNotStallAppends(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	h := s.Handler()

	w := &blockedWriter{
		ResponseRecorder: httptest.NewRecorder(),
		writing:          make(chan struct{}),
		release:          make(chan struct{}),
	}
	queryDone := make(chan struct{})
	go func() {
		defer close(queryDone)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query",
			strings.NewReader(`{"log":"fig3","query":"GetRefer -> CheckIn"}`)))
	}()
	<-w.writing

	appended := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/logs/fig3/append",
			strings.NewReader(`{"lsn":21,"wid":3,"seq":3,"act":"CheckIn"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		appended <- rec.Code
	}()
	select {
	case code := <-appended:
		if code != http.StatusOK {
			t.Errorf("append beside a blocked response: status %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Error("append waited for a query whose client has stopped reading")
	}
	close(w.release)
	<-queryDone
	if w.Code != http.StatusOK {
		t.Errorf("blocked query: status %d: %s", w.Code, w.Body)
	}
}

// twoLiveLogs serves Figure 3 twice as live logs, "a" and "b", reloading "a"
// from loadA. stall starts a reload pass and returns once "a" is rebased and
// the loader is stalled on "b"; finish lets the pass complete.
func twoLiveLogs(t *testing.T, loadA func() *wlog.Log) (h http.Handler, stall func() (finish func())) {
	t.Helper()
	reached, release := make(chan struct{}), make(chan struct{})
	s := New(Config{Ingest: true, WALDir: t.TempDir(), Loader: logLoader(func(spec string) (*wlog.Log, error) {
		if spec == "b" {
			close(reached)
			<-release
			return wlq.ClinicFig3(), nil
		}
		return loadA(), nil
	})})
	t.Cleanup(func() { s.Close() })
	for _, name := range []string{"a", "b"} {
		if err := s.AddLog(name, name, wlq.ClinicFig3()); err != nil {
			t.Fatal(err)
		}
	}
	return s.Handler(), func() func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := s.ReloadLogs(); err != nil {
				t.Error(err)
			}
		}()
		<-reached
		return func() {
			close(release)
			<-done
		}
	}
}

// countIn answers a count query on one log.
func countIn(t *testing.T, h http.Handler, log, query string) queryResponse {
	t.Helper()
	var q queryResponse
	body := `{"log":"` + log + `","query":"` + query + `","mode":"count"}`
	if rec := postQuery(t, h, body, &q); rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
	}
	return q
}

// TestReloadPassServesAcknowledgedAppends: while a reload pass is still
// loading another log, an append to a log already rebased is acknowledged
// and must be visible to the next query and inventory at once.
func TestReloadPassServesAcknowledgedAppends(t *testing.T) {
	h, stall := twoLiveLogs(t, wlq.ClinicFig3)
	finish := stall()
	defer finish()
	if rec := postAppend(t, h, "a", `{"lsn":21,"wid":3,"seq":3,"act":"CheckIn"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("append: %d: %s", rec.Code, rec.Body)
	}
	if q := countIn(t, h, "a", "CheckIn"); q.Count != 3 {
		t.Errorf("CheckIn count after an acknowledged append = %d, want 3", q.Count)
	}
	var logs logsResponse
	getJSON(t, h, "/v1/logs", &logs)
	for _, doc := range logs.Logs {
		if doc.Name == "a" && (doc.Records != 21 || doc.IngestLSN != 21) {
			t.Errorf("/v1/logs row of a: %d records beside ingest_lsn %d, want 21 and 21", doc.Records, doc.IngestLSN)
		}
	}
}

// TestReloadPassDropsPreRebaseCache: a reload whose snapshot the WAL can
// follow but whose content differs must not answer from a result cached
// before the rebase, even while the pass is still loading another log.
func TestReloadPassDropsPreRebaseCache(t *testing.T) {
	h, stall := twoLiveLogs(t, func() *wlog.Log {
		recs := wlq.ClinicFig3().Records()
		recs[10].Activity = "CheckIn" // wid 1's second SeeDoctor
		return wlog.MustNew(recs)
	})
	if q := countIn(t, h, "a", "CheckIn"); q.Count != 2 {
		t.Fatalf("CheckIn count before the reload = %d, want 2", q.Count)
	}
	finish := stall()
	defer finish()
	if q := countIn(t, h, "a", "CheckIn"); q.Count != 3 || q.Cached {
		t.Errorf("CheckIn count after the rebase = %d (cached %v), want 3 from the new snapshot", q.Count, q.Cached)
	}
}

// walCounters reads the ingest section's WAL record and fsync counters.
func walCounters(t *testing.T, h http.Handler) (appends, fsyncs uint64) {
	t.Helper()
	var m metricsDoc
	getJSON(t, h, "/metrics", &m)
	if m.Ingest == nil {
		t.Fatal("no ingest metrics section")
	}
	return m.Ingest.WALAppends, m.Ingest.WALFsyncs
}

// TestAppendBatchIsOneFsync: an append request's records are one batch —
// one WAL write and one fsync under the default policy, however many
// records the body holds.
func TestAppendBatchIsOneFsync(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	h := s.Handler()
	body := `{"wid":4,"seq":1,"act":"START"}` + "\n"
	for seq := 2; seq <= 10; seq++ {
		body += `{"wid":4,"seq":` + strconv.Itoa(seq) + `,"act":"SeeDoctor"}` + "\n"
	}
	appends0, fsyncs0 := walCounters(t, h)
	var resp appendResponse
	if rec := postAppend(t, h, "fig3", body, &resp); rec.Code != http.StatusOK {
		t.Fatalf("append: status %d: %s", rec.Code, rec.Body)
	}
	if resp.Appended != 10 || resp.FirstLSN != 21 || resp.LastLSN != 30 {
		t.Fatalf("append response: %+v", resp)
	}
	appends, fsyncs := walCounters(t, h)
	if appends-appends0 != 10 || fsyncs-fsyncs0 != 1 {
		t.Errorf("a 10-record append logged %d records with %d fsyncs, want 10 and 1", appends-appends0, fsyncs-fsyncs0)
	}
}

// TestAppendBrokenBodyKeepsItsPrefix: a body that breaks off after some
// well-formed records is a 400 that still appends those records, reports
// them, and leaves them queryable — the same durable-prefix contract as a
// 422.
func TestAppendBrokenBodyKeepsItsPrefix(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	h := s.Handler()
	rec := postAppend(t, h, "fig3", `{"lsn":21,"wid":3,"seq":3,"act":"CheckIn"}
{"lsn":22,"wid":3,"seq":4,"act":"SeeDoctor"}
{"lsn":23,"wid":`, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	var doc errorDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Accepted != 2 || doc.LastLSN != 22 {
		t.Errorf("a broken body must report the records before the break: %+v", doc)
	}
	var logs logsResponse
	getJSON(t, h, "/v1/logs", &logs)
	if doc := logs.Logs[0]; doc.IngestLSN != 22 || doc.Records != 22 {
		t.Errorf("after the prefix: ingest_lsn %d, %d records; want 22 and 22", doc.IngestLSN, doc.Records)
	}
}
