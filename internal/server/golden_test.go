package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"wlq"
	"wlq/internal/core/eval"
)

// Response goldens: the bytes POST /v1/query and POST /v1/worker/query wrote
// on the Figure 3 log before the request's mode reached the evaluator, when
// every answer was read off a materialised set. The served documents are the
// contract — same keys, order, omissions and values in every mode, however
// the answer came about. Regenerate with
// `go test ./internal/server -run Golden -update`.

// elapsedRE (respond_test.go) masks the one timing in a response, and
// stageRE a worker reply's two stage timings besides; an excluded instance's
// cause names a random incident id.
var (
	stageRE      = regexp.MustCompile(`"(prepare|eval)_us":\d+`)
	incidentIDRE = regexp.MustCompile(`incident [0-9A-Za-z-]+`)
)

func maskVolatile(body []byte) string {
	body = elapsedRE.ReplaceAll(body, []byte(`"elapsed_us":0`))
	body = stageRE.ReplaceAll(body, []byte(`"${1}_us":0`))
	return string(incidentIDRE.ReplaceAll(body, []byte("incident ID")))
}

// checkGolden compares the named replies, in order, to the golden file.
func checkGolden(t *testing.T, path string, names, bodies []string) {
	t.Helper()
	var text strings.Builder
	for i, name := range names {
		fmt.Fprintf(&text, "== %s\n%s", name, bodies[i])
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if text.String() == string(want) {
		return
	}
	wantOf := make(map[string]string)
	for _, entry := range strings.Split(string(want), "== ")[1:] {
		name, body, _ := strings.Cut(entry, "\n")
		wantOf[name] = body
	}
	for i, name := range names {
		if bodies[i] != wantOf[name] {
			t.Errorf("%s\n got: %swant: %s", name, bodies[i], wantOf[name])
		}
	}
	if len(wantOf) != len(names) {
		t.Errorf("golden has %d entries, the test %d", len(wantOf), len(names))
	}
}

var answerModes = []string{"incidents", "instances", "count", "exists"}

func TestQueryResponseGoldens(t *testing.T) {
	const several = "GetRefer | SeeDoctor" // 7 incidents over the 3 instances
	var names, bodies []string
	ask := func(name string, h http.Handler, body string, code int) {
		t.Helper()
		rec := postQuery(t, h, body, nil)
		if rec.Code != code {
			t.Fatalf("%s: status %d, want %d: %s", name, rec.Code, code, rec.Body)
		}
		names = append(names, fmt.Sprintf("%s (%d)", name, rec.Code))
		bodies = append(bodies, maskVolatile(rec.Body.Bytes()))
	}
	for _, mode := range answerModes {
		h := newTestServer(t, Config{}).Handler()
		body := fmt.Sprintf(`{"query":%q,"mode":%q}`, several, mode)
		ask("miss/"+mode, h, body, http.StatusOK)
		ask("hit/"+mode, h, body, http.StatusOK)
		ask("empty/"+mode, h, fmt.Sprintf(`{"query":"Zzz -> Zzz","mode":%q}`, mode), http.StatusOK)
	}
	h := newTestServer(t, Config{}).Handler()
	ask("truncated/incidents", h, fmt.Sprintf(`{"query":%q,"max_results":2}`, several), http.StatusOK)
	ask("truncated hit/incidents", h, fmt.Sprintf(`{"query":%q,"max_results":2}`, several), http.StatusOK)

	// Wid 3's evaluation panics: the partial answer excludes it.
	eval.SetEvalHook(func(wid uint64) {
		if wid == 3 {
			panic("injected instance fault")
		}
	})
	defer eval.SetEvalHook(nil)
	h = newTestServer(t, Config{}).Handler()
	for _, mode := range answerModes {
		ask("partial/"+mode, h, fmt.Sprintf(`{"query":%q,"mode":%q,"partial":true}`, several, mode), http.StatusPartialContent)
	}
	checkGolden(t, "testdata/query_responses.golden", names, bodies)
}

func TestWorkerReplyGoldens(t *testing.T) {
	s, _ := startWorker(t, "fig3", wlq.ClinicFig3())
	h := s.Handler()
	var names, bodies []string
	for _, mode := range []string{"", "incidents", "instances", "count"} {
		for _, c := range [][2]string{{"several", "GetRefer | SeeDoctor"}, {"empty", "Zzz -> Zzz"}} {
			name, plan := c[0], c[1]
			body := fmt.Sprintf(`{"log":"fig3","plan":%q,"wid_min":2,"wid_max":3,"self":"http://w1","mode":%q}`, plan, mode)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/query", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", name, mode, rec.Code, rec.Body)
			}
			names = append(names, fmt.Sprintf("%s/mode=%q", name, mode))
			bodies = append(bodies, maskVolatile(rec.Body.Bytes()))
		}
	}
	checkGolden(t, "testdata/worker_replies.golden", names, bodies)
}
