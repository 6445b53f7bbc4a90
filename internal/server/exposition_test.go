package server

import (
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"wlq"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current output")

// loopbackPort is the random port of an httptest worker URL inside a label.
var loopbackPort = regexp.MustCompile(`127\.0\.0\.1:\d+`)

// expositionShape reduces one server's /metrics to what a dashboard or scrape
// config depends on: every # HELP / # TYPE line and every sample's name and
// label set of the Prometheus text (values masked), and every key path of the
// JSON document. Both lists are sorted and prefixed with the server's role.
func expositionShape(t *testing.T, role string, s *Server) []string {
	t.Helper()
	h := s.Handler()
	var lines []string
	prom := getJSON(t, h, "/metrics?format=prometheus", nil).Body.String()
	for _, line := range strings.Split(strings.TrimRight(prom, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		lines = append(lines, role+" prom "+loopbackPort.ReplaceAllString(line, "127.0.0.1:PORT"))
	}
	var doc any
	getJSON(t, h, "/metrics", &doc)
	paths := make(map[string]bool)
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				walk(prefix+"."+k, child)
			}
		case []any:
			for _, child := range v {
				walk(prefix+"[]", child)
			}
		default:
			paths[prefix] = true
		}
	}
	walk("", doc)
	for p := range paths {
		lines = append(lines, role+" json "+p)
	}
	sort.Strings(lines)
	return lines
}

// TestMetricsExpositionGolden pins the shape of GET /metrics in both formats
// across the three roles that between them emit every family: a coordinator,
// one of its workers, and an ingest server with two live logs (Config.Ingest
// excludes the cluster roles). The golden was generated before the Prometheus
// renderer was rewritten to walk the metrics document, so a family renamed,
// retyped, re-helped, relabeled or dropped by the walker fails here. Regenerate
// with `go test ./internal/server -run TestMetricsExpositionGolden -update`.
func TestMetricsExpositionGolden(t *testing.T) {
	f := newClusterFixture(t, 1, "fig3", wlq.ClinicFig3(), nil, nil)
	postQuery(t, f.coord.Handler(), `{"log":"fig3","query":"UpdateRefer -> GetReimburse"}`, nil)
	ing, _ := newIngestServer(t, Config{})
	if err := ing.AddLog("second", "builtin:fig3", wlq.ClinicFig3()); err != nil {
		t.Fatal(err)
	}

	var got []string
	got = append(got, expositionShape(t, "coordinator", f.coord)...)
	got = append(got, expositionShape(t, "worker", f.wsrv[0])...)
	got = append(got, expositionShape(t, "ingest", ing)...)
	text := strings.Join(got, "\n") + "\n"

	const path = "testdata/metrics_exposition.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if text == string(want) {
		return
	}
	wantSet := make(map[string]bool)
	for _, line := range strings.Split(string(want), "\n") {
		wantSet[line] = true
	}
	for _, line := range got {
		if !wantSet[line] {
			t.Errorf("not in golden: %s", line)
		}
		delete(wantSet, line)
	}
	for line := range wantSet {
		if line != "" {
			t.Errorf("missing from exposition: %s", line)
		}
	}
}
