package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"wlq"
	"wlq/internal/cluster"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/gen"
)

// queryResponse is the POST /v1/query document as a client decodes it, and
// as the service declared it while it still reflect-encoded the whole
// answer: the head, the two answer arrays, the tail. The tests decode into
// it, and the document-equivalence test holds what respond writes to what
// encoding/json writes for it.
type queryResponse struct {
	queryHead
	Instances []uint64      `json:"instances,omitempty"`
	Incidents []incidentDoc `json:"incidents,omitempty"`
	queryTail
}

// incidentDoc is the reflect-encoded form of one incident, which the
// incident codec replaced on the wire and must keep writing.
type incidentDoc struct {
	WID  uint64   `json:"wid"`
	Seqs []uint64 `json:"seqs"`
}

func incidentDocs(incs []incident.Incident) []incidentDoc {
	out := make([]incidentDoc, len(incs))
	for i, inc := range incs {
		out[i] = incidentDoc{WID: inc.WID(), Seqs: inc.Seqs()}
	}
	return out
}

// responseKeys is the document's key order, fixed since the first served
// query: the scalars a client may stop after, then the arrays, then the
// optional objects.
var responseKeys = []string{"log", "query", "canonical", "plan", "strategy", "mode", "cached",
	"elapsed_us", "count", "exists", "instances", "incidents", "truncated", "trace", "partial", "completeness"}

// topLevelKeys lists the keys of a JSON object in the order written.
func topLevelKeys(t *testing.T, body []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", body)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestResponseDocumentEquivalence: whatever the mode and whichever way the
// answer came about, the bytes respond writes are the bytes encoding/json
// writes for the queryResponse they decode to — same keys, same order, same
// omissions, same values — on one line with an exact Content-Length.
func TestResponseDocumentEquivalence(t *testing.T) {
	const several = "GetRefer | SeeDoctor" // 8 incidents over 3 instances of fig3
	type scenario struct {
		name    string
		handler func(t *testing.T) http.Handler
		query   string
		extra   string // further request members
		warm    bool   // send the request once before the one checked
		code    int
		// want names the optional keys an incidents-mode answer must carry
		// besides the answer array.
		want []string
	}
	plain := func(cfg Config) func(*testing.T) http.Handler {
		return func(t *testing.T) http.Handler { return newTestServer(t, cfg).Handler() }
	}
	scenarios := []scenario{
		{name: "empty answer", handler: plain(Config{}), query: "Zzz -> Zzz", code: 200},
		{name: "truncated", handler: plain(Config{}), query: several, extra: `,"max_results":2`, code: 200, want: []string{"truncated"}},
		{name: "truncated hit", handler: plain(Config{}), query: several, extra: `,"max_results":2`, warm: true, code: 200, want: []string{"truncated"}},
		{name: "trace", handler: plain(Config{}), query: several, extra: `,"trace":true`, code: 200, want: []string{"trace"}},
		{name: "cache off", handler: plain(Config{CacheSize: -1}), query: several, code: 200},
		{name: "miss", handler: plain(Config{}), query: several, code: 200},
		{name: "hit", handler: plain(Config{}), query: several, warm: true, code: 200},
		{name: "sharded miss", handler: func(t *testing.T) http.Handler { return shardedChaosServer(t).Handler() },
			query: "A -> B", code: 200},
		{name: "sharded hit", handler: func(t *testing.T) http.Handler { return shardedChaosServer(t).Handler() },
			query: "A -> B", warm: true, code: 200},
		{name: "sharded partial", handler: func(t *testing.T) http.Handler {
			poisonWIDs(t, 3, 13, 14)
			return shardedChaosServer(t).Handler()
		}, query: "A -> B", extra: `,"partial":true`, code: 206, want: []string{"partial", "completeness"}},
	}
	for _, sc := range scenarios {
		for _, mode := range []string{"incidents", "instances", "count", "exists"} {
			t.Run(sc.name+"/"+mode, func(t *testing.T) {
				h := sc.handler(t)
				body := fmt.Sprintf(`{"query":%q,"mode":%q%s}`, sc.query, mode, sc.extra)
				if sc.warm {
					postQuery(t, h, body, nil)
				}
				rec := postQuery(t, h, body, nil)
				if rec.Code != sc.code {
					t.Fatalf("status %d, want %d: %s", rec.Code, sc.code, rec.Body)
				}
				got := rec.Body.Bytes()
				if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(got)) {
					t.Errorf("Content-Length %q for a %d-byte body", cl, len(got))
				}
				if !bytes.HasSuffix(got, []byte("}\n")) || bytes.Count(got, []byte("\n")) != 1 {
					t.Errorf("body is not one line: %q", got)
				}
				var doc queryResponse
				if err := json.Unmarshal(got, &doc); err != nil {
					t.Fatalf("response does not decode: %v\n%s", err, got)
				}
				want, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bytes.TrimSuffix(got, []byte("\n")), want) {
					t.Fatalf("respond and encoding/json disagree\nrespond:       %s\nencoding/json: %s", got, want)
				}

				// The keys present, against the fixed order and the scenario.
				keys := topLevelKeys(t, got)
				next := 0
				for _, k := range keys {
					for next < len(responseKeys) && responseKeys[next] != k {
						next++
					}
					if next == len(responseKeys) {
						t.Fatalf("key %q is unknown or out of order in %v", k, keys)
					}
				}
				has := func(k string) bool { return strings.Contains(" "+strings.Join(keys, " ")+" ", " "+k+" ") }
				empty := sc.name == "empty answer"
				if has("incidents") != (mode == "incidents" && !empty) || has("instances") != (mode == "instances" && !empty) {
					t.Errorf("mode %s, empty=%v: keys %v", mode, empty, keys)
				}
				if doc.Cached != (sc.warm && !strings.Contains(sc.extra, "trace")) {
					t.Errorf("cached = %v", doc.Cached)
				}
				for _, k := range sc.want {
					if k == "truncated" && mode != "incidents" {
						continue
					}
					if !has(k) {
						t.Errorf("no %q in %v", k, keys)
					}
				}
				if doc.Exists != (doc.Count > 0) || (mode == "incidents" && !doc.Truncated && len(doc.Incidents) != doc.Count) {
					t.Errorf("count %d, exists %v, %d incidents", doc.Count, doc.Exists, len(doc.Incidents))
				}
			})
		}
	}
}

// TestWriteJSONEncodesBeforeCommitting: a value that does not encode is a
// 500 with an error document, not a 200 with half a body.
func TestWriteJSONEncodesBeforeCommitting(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, explainResponse{Before: estimateDoc{Cost: math.Inf(1)}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body)
	}
	if doc := decodeError(t, rec); !strings.Contains(doc.Error, "encode response") {
		t.Fatalf("error document: %s", rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}

	rec = httptest.NewRecorder()
	writeSpliced(rec, http.StatusOK, queryHead{}, "incidents", [][]byte{[]byte("[]")}, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(decodeError(t, rec).Error, "encode response") {
		t.Fatalf("spliced: status %d: %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusTeapot, errorDoc{Error: "x"})
	if rec.Code != http.StatusTeapot || rec.Body.String() != "{\"error\":\"x\"}\n" {
		t.Fatalf("status %d body %q", rec.Code, rec.Body)
	}
}

// hotMixQueries are bench/'s eight hot-mix patterns (first spelling).
var hotMixQueries = []string{
	"GetRefer | GetReimburse",
	"GetRefer -> (SeeDoctor -> PayTreatment)",
	"UpdateRefer & TakeTreatment",
	"(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)",
	"SeeDoctor -> PayTreatment",
	"UpdateRefer & (TakeTreatment | GetReimburse)",
	"SeeDoctor",
	"START -> END",
}

// clinicServer serves wlq.ClinicLog(n, 1) under the name "clinic".
func clinicServer(tb testing.TB, cfg Config, n int) http.Handler {
	tb.Helper()
	l, err := wlq.ClinicLog(n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	s := New(cfg)
	if err := s.AddLog("clinic", "builtin:clinic", l); err != nil {
		tb.Fatal(err)
	}
	return s.Handler()
}

// serveQuery posts body and returns the recorder; for the allocation and
// benchmark loops, which cannot use the *testing.T helpers.
func serveQuery(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
	return rec
}

var elapsedRE = regexp.MustCompile(`"elapsed_us":\d+`)

// TestCacheHitsShareOneBody: concurrent hits on one entry all answer with
// the same bytes, the whole array its miss encoded (run under -race).
func TestCacheHitsShareOneBody(t *testing.T) {
	h := clinicServer(t, Config{}, 300)
	body := `{"query":"GetRefer | GetReimburse"}`
	// The miss answers truncated, cut from the whole array it encoded, so
	// the hits below are the first to write that array.
	if rec := serveQuery(h, `{"query":"GetRefer | GetReimburse","max_results":1}`); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: %d: %s", rec.Code, rec.Body)
	}
	bodies := make([][]byte, 32)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = elapsedRE.ReplaceAll(serveQuery(h, body).Body.Bytes(), []byte(`"elapsed_us":0`))
		}()
	}
	wg.Wait()
	var doc queryResponse
	if err := json.Unmarshal(bodies[0], &doc); err != nil || !doc.Cached || len(doc.Incidents) != doc.Count || doc.Count == 0 {
		t.Fatalf("hit: cached=%v count=%d incidents=%d err=%v", doc.Cached, doc.Count, len(doc.Incidents), err)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("hit %d answered differently from hit 0", i)
		}
	}
}

// TestCacheHitAllocsDoNotGrowWithAnswer: a hit writes the entry's shared
// encoding, so what it allocates is the request, the parse, the head and the
// capture — the same on a log ten times the size, for the 1.7k-incident
// parallel answer as for the 19k-incident choice-of-seqs one. (The two
// patterns differ from each other by what parsing them allocates, so each is
// compared with itself.)
func TestCacheHitAllocsDoNotGrowWithAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates two queries over a 5000-instance log")
	}
	small, large := clinicServer(t, Config{}, 500), clinicServer(t, Config{}, 5000)
	for _, query := range []string{"UpdateRefer & TakeTreatment", "(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)"} {
		body := fmt.Sprintf(`{"query":%q}`, query)
		allocs := func(h http.Handler) (float64, int) {
			var doc queryResponse
			if rec := postQuery(t, h, body, &doc); rec.Code != http.StatusOK {
				t.Fatalf("%s: %d: %s", query, rec.Code, rec.Body)
			}
			w := &discardResponse{header: make(http.Header)}
			return testing.AllocsPerRun(50, func() {
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
			}), doc.Count
		}
		aSmall, nSmall := allocs(small)
		aLarge, nLarge := allocs(large)
		if nLarge < 5*nSmall {
			t.Fatalf("%s: answers of %d and %d incidents do not tell growth apart", query, nSmall, nLarge)
		}
		t.Logf("%s: %d incidents %.0f allocs/hit, %d incidents %.0f allocs/hit", query, nSmall, aSmall, nLarge, aLarge)
		if aLarge > aSmall*1.1 {
			t.Errorf("%s: a hit on %d incidents allocates %.0f times, on %d incidents %.0f: it grows with the answer",
				query, nSmall, aSmall, nLarge, aLarge)
		}
	}
}

// TestSummaryMissAllocsDoNotGrowWithAnswer: a count, exists or instances
// miss on a countable plan builds no incident, so what it allocates — the
// request, the plan, each goroutine's scratch, and for instances the wid list
// as it doubles — does not scale with the answer: ten times the log, ten
// times the incidents, about the same allocations.
func TestSummaryMissAllocsDoNotGrowWithAnswer(t *testing.T) {
	small, large := clinicServer(t, Config{CacheSize: -1}, 300), clinicServer(t, Config{CacheSize: -1}, 3000)
	for _, query := range []string{"SeeDoctor -> PayTreatment", "GetRefer -> (SeeDoctor -> PayTreatment)", "UpdateRefer & (TakeTreatment | GetReimburse)"} {
		for _, mode := range []string{"count", "exists", "instances"} {
			body := fmt.Sprintf(`{"query":%q,"mode":%q}`, query, mode)
			allocs := func(h http.Handler) (float64, int) {
				var doc queryResponse
				if rec := postQuery(t, h, body, &doc); rec.Code != http.StatusOK {
					t.Fatalf("%s: %d: %s", query, rec.Code, rec.Body)
				}
				w := &discardResponse{header: make(http.Header)}
				return testing.AllocsPerRun(20, func() {
					h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
				}), doc.Count
			}
			aSmall, nSmall := allocs(small)
			aLarge, nLarge := allocs(large)
			if nLarge < 5*nSmall {
				t.Fatalf("%s: answers of %d and %d incidents do not tell growth apart", query, nSmall, nLarge)
			}
			t.Logf("%s %s: %d incidents %.0f allocs/miss, %d incidents %.0f allocs/miss", query, mode, nSmall, aSmall, nLarge, aLarge)
			// Scratch buffers double up to the longest instance met, so a longer
			// log may grow them once or twice more; an incident per answer would
			// be thousands.
			if aLarge > aSmall*1.1 {
				t.Errorf("%s %s: a miss on %d incidents allocates %.0f times, on %d incidents %.0f: it grows with the answer",
					query, mode, nSmall, aSmall, nLarge, aLarge)
			}
		}
	}
}

// TestIncidentsMissAllocsDoNotGrowWithAnswer: an incidents miss is written
// as bytes by the scan that evaluates it — each goroutine into a pooled
// buffer, the join into the buffer the last answer written left — so, with
// the collector off and the pools kept, what it allocates (the request, the
// plan, each goroutine's scratch) does not scale with the answer: ten times
// the log, ten times the incidents, about the same allocations.
func TestIncidentsMissAllocsDoNotGrowWithAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates three queries over a 5000-instance log")
	}
	if raceEnabled {
		t.Skip("counts allocations, which the race detector's sync.Pool does not allow")
	}
	cfg := Config{CacheSize: -1, FlightRecorderSize: -1}
	small, large := clinicServer(t, cfg, 500), clinicServer(t, cfg, 5000)
	for _, query := range []string{"SeeDoctor -> PayTreatment", "UpdateRefer & TakeTreatment", "(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)"} {
		body := fmt.Sprintf(`{"query":%q}`, query)
		allocs := func(h http.Handler) (float64, int) {
			var doc queryResponse
			if rec := postQuery(t, h, body, &doc); rec.Code != http.StatusOK {
				t.Fatalf("%s: %d: %s", query, rec.Code, rec.Body)
			}
			w := &discardResponse{header: make(http.Header)}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			return testing.AllocsPerRun(20, func() {
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
			}), doc.Count
		}
		aSmall, nSmall := allocs(small)
		aLarge, nLarge := allocs(large)
		if nLarge < 5*nSmall {
			t.Fatalf("%s: answers of %d and %d incidents do not tell growth apart", query, nSmall, nLarge)
		}
		t.Logf("%s: %d incidents %.0f allocs/miss, %d incidents %.0f allocs/miss", query, nSmall, aSmall, nLarge, aLarge)
		if aLarge > aSmall*1.1 {
			t.Errorf("%s: a miss on %d incidents allocates %.0f times, on %d incidents %.0f: it grows with the answer",
				query, nSmall, aSmall, nLarge, aLarge)
		}
	}
}

// wireList is the wire-form list the blocks concatenate to:
// incident.AppendWire over each block in turn, after an empty list.
func wireList(blocks ...[]incident.Incident) []byte {
	b := incident.AppendWire(nil, nil)
	for _, incs := range blocks {
		b = incident.AppendWire(b, incs)
	}
	return b
}

// cannedFleet is a worker fleet behind cluster.Config.Transport that answers
// every request in mode incidents with one two-record incident per wid of
// its interval, each worker's reply encoded once and then replayed, so that
// what a query allocates is the coordinator's alone.
type cannedFleet struct {
	wids    []uint64
	replies sync.Map // worker name -> reply body
}

func (f *cannedFleet) RoundTrip(r *http.Request) (*http.Response, error) {
	var req cluster.WorkerQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, err
	}
	body, ok := f.replies.Load(req.Self)
	if !ok {
		var incs []incident.Incident
		for _, wid := range f.wids {
			if wid >= *req.WIDMin && wid <= *req.WIDMax {
				incs = append(incs, incident.New(wid, 1, 2))
			}
		}
		rec := httptest.NewRecorder()
		reply := cluster.WorkerReply{Worker: req.Self, WIDsOwned: len(incs), Instances: len(incs), Count: len(incs), ElapsedUS: 1}
		if err := cluster.WriteReply(rec, eval.ShapeIncidents, [][]byte{wireList(incs)}, &reply); err != nil {
			return nil, err
		}
		body, _ = f.replies.LoadOrStore(req.Self, rec.Body.Bytes())
	}
	b := body.([]byte)
	return &http.Response{StatusCode: http.StatusOK, ContentLength: int64(len(b)), Header: make(http.Header),
		Body: io.NopCloser(bytes.NewReader(b))}, nil
}

// TestClusterIncidentsAllocsDoNotGrowWithAnswer: a coordinator serves an
// incidents answer as the bytes its workers sent — each part's array checked
// where it lies, the arrays copied once into the answer, the answer written
// as it stands. Nothing decodes an incident, so nothing builds an
// incident.Set or writes one as bytes: a miss allocates as many
// times for a thirty-fold answer as for a small one, and so does a truncated
// one.
func TestClusterIncidentsAllocsDoNotGrowWithAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocations exactly, which the race detector's sync.Pool does not allow")
	}
	allocs := func(instances int, body string) (float64, int) {
		l := gen.MustRandomLog(gen.LogParams{Instances: instances, MeanLength: 2, Seed: 1})
		s := New(Config{CacheSize: -1, FlightRecorderSize: -1, ProbeInterval: -1,
			Cluster: &cluster.Config{Workers: []string{"http://w1", "http://w2"}, Transport: &cannedFleet{wids: l.WIDs()}}})
		t.Cleanup(func() { s.Close() })
		if err := s.AddLog("gen", "builtin:gen", l); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		var doc queryResponse
		if rec := postQuery(t, h, body, &doc); rec.Code != http.StatusOK || len(doc.Incidents) == 0 {
			t.Fatalf("%d: %s", rec.Code, rec.Body)
		}
		w := &discardResponse{header: make(http.Header)}
		// With the collector off, no cycle empties a sync.Pool that the
		// next request would have to refill: what is counted is what the
		// request allocates.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(20, func() {
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
		}), doc.Count
	}
	for _, body := range []string{`{"query":"Act00"}`, `{"query":"Act00","max_results":3}`} {
		// Both answers large enough that the counts the spans carry no longer
		// fit the runtime's preallocated small integers.
		aSmall, nSmall := allocs(1000, body)
		aLarge, nLarge := allocs(30000, body)
		t.Logf("%s: %d incidents %.0f allocs/miss, %d incidents %.0f allocs/miss", body, nSmall, aSmall, nLarge, aLarge)
		// Decoding would allocate once per block of seqs at least: dozens more.
		if nLarge < 20*nSmall || aLarge > aSmall+1 {
			t.Errorf("%s: a miss on %d incidents allocates %.0f times, on %d incidents %.0f", body, nSmall, aSmall, nLarge, aLarge)
		}
	}
}

// discardResponse is a ResponseWriter that counts and drops the body.
type discardResponse struct {
	header http.Header
	n      int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// BenchmarkRespond prices a served query on bench/'s eight hot-mix patterns
// over the benchmark's log size, as a cache hit (parse, canonical key, the
// shared body) and as a miss (cache off: plus evaluation and the encoding)
// in each shape an answer is evaluated in, with the body size as bytes/op.
func BenchmarkRespond(b *testing.B) {
	for _, c := range []struct {
		name, mode string
		cfg        Config
	}{
		{"hit", "incidents", Config{}},
		{"miss", "incidents", Config{CacheSize: -1}},
		{"miss-count", "count", Config{CacheSize: -1}},
		{"miss-instances", "instances", Config{CacheSize: -1}},
	} {
		h := clinicServer(b, c.cfg, 5000)
		for _, q := range hotMixQueries {
			b.Run(c.name+"/"+q, func(b *testing.B) {
				body := fmt.Sprintf(`{"query":%q,"mode":%q}`, q, c.mode)
				if rec := serveQuery(h, body); rec.Code != http.StatusOK {
					b.Fatalf("%d: %s", rec.Code, rec.Body)
				}
				w := &discardResponse{header: make(http.Header)}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.n = 0
					h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
				}
				b.ReportMetric(float64(w.n), "bytes/op")
			})
		}
	}
}
