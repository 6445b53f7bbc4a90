package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"wlq"
	"wlq/internal/obs"
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

// TestMetricsRenderersAgree: both renderers read the one registry, so after a
// mixed workload — queries in every mode, a parse error, a cache hit, a
// partial answer, an append — a quiescent coordinator, its worker and an
// ingest server with two live logs show every declared number alike. Each
// unlabeled Prometheus sample of a declaration equals the JSON value the
// same declaration puts at its key path, each op-labeled sample its JSON map
// entry; a declaration one renderer shows the other shows too, and every
// family the text carries beyond the declarations is one of the hand-rendered
// labeled rows. The exposition golden pins names and paths; this pins values.
func TestMetricsRenderersAgree(t *testing.T) {
	f := newClusterFixture(t, 1, "fig3", wlq.ClinicFig3(), nil, nil)
	ing, _ := newIngestServer(t, Config{})
	if err := ing.AddLog("second", "builtin:fig3", wlq.ClinicFig3()); err != nil {
		t.Fatal(err)
	}
	for _, h := range []http.Handler{f.coord.Handler(), ing.Handler()} {
		for _, mode := range answerModes {
			postQuery(t, h, fmt.Sprintf(`{"log":"fig3","query":"GetRefer | SeeDoctor","mode":%q}`, mode), nil)
		}
		postQuery(t, h, `{"log":"fig3","query":"GetRefer | SeeDoctor"}`, nil) // a cache hit
		postQuery(t, h, `{"log":"fig3","query":"broken ->"}`, nil)
		postQuery(t, h, `{"log":"fig3","query":"GetRefer -> SeeDoctor","trace":true}`, nil)
	}
	if rec := postAppend(t, ing.Handler(), "second", `{"lsn":21,"wid":3,"seq":3,"act":"CheckIn"}`+"\n", nil); rec.Code != http.StatusOK {
		t.Fatalf("append: %d: %s", rec.Code, rec.Body)
	}
	poisonWIDs(t, 3)
	if rec := postQuery(t, ing.Handler(), `{"log":"fig3","query":"GetRefer | CheckIn","partial":true}`, nil); rec.Code != http.StatusPartialContent {
		t.Fatalf("partial: %d: %s", rec.Code, rec.Body)
	}
	postQuery(t, f.coord.Handler(), `{"log":"fig3","query":"GetRefer | CheckIn","partial":true}`, nil)

	for _, role := range []struct {
		name string
		s    *Server
	}{{"coordinator", f.coord}, {"worker", f.wsrv[0]}, {"ingest", ing}} {
		t.Run(role.name, func(t *testing.T) { checkRenderersAgree(t, role.s) })
	}
}

// declaration is one tagged registry field both renderers read: its JSON key
// path and its Prometheus family.
type declaration struct {
	path    []string
	family  string
	labeled bool
	// omitEmpty: the JSON leaves the key out when the value is zero.
	omitEmpty bool
}

// declarations lists the tagged fields of a metrics-document struct type,
// the way the renderers walk it: an untagged nested or embedded section
// adds its json key, if any, to the path. Prometheus-only fields (json "-")
// are left out; their families go into promOnly.
func declarations(typ reflect.Type, path []string, promOnly map[string]bool) []declaration {
	var out []declaration
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		key, opts, _ := strings.Cut(field.Tag.Get("json"), ",")
		family := field.Tag.Get("prom")
		switch {
		case family != "" && key == "-":
			promOnly[family] = true
		case family != "":
			out = append(out, declaration{
				path:      append(append([]string(nil), path...), key),
				family:    family,
				labeled:   field.Type == reflect.TypeOf(obs.OpCounter{}),
				omitEmpty: opts == "omitempty",
			})
		default:
			ft := field.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() != reflect.Struct || key == "-" || !field.IsExported() && !field.Anonymous {
				continue
			}
			sub := path
			if key != "" {
				sub = append(append([]string(nil), path...), key)
			}
			out = append(out, declarations(ft, sub, promOnly)...)
		}
	}
	return out
}

// volatileFamilies change between two scrapes of a quiescent server.
var volatileFamilies = map[string]bool{
	"wlq_uptime_seconds": true, "wlq_go_gc_cpu_seconds_total": true,
	"wlq_go_heap_live_bytes": true, "wlq_go_heap_objects": true,
}

// handRendered are the labeled rows prometheus.go writes by hand.
var handRendered = map[string]bool{
	"wlq_cluster_workers_lost": true, "wlq_cluster_worker_breaker_open": true,
	"wlq_worker_query_duration_seconds": true, "wlq_ingest_last_lsn": true,
	"wlq_ingest_queue_depth": true, "wlq_ingest_queue_capacity": true,
}

func checkRenderersAgree(t *testing.T, s *Server) {
	h := s.Handler()
	dec := json.NewDecoder(bytes.NewReader(getJSON(t, h, "/metrics", nil).Body.Bytes()))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	// samples[family][labels] is the text exposition's value.
	samples := make(map[string]map[string]float64)
	var families []string
	for _, line := range strings.Split(strings.TrimSpace(getJSON(t, h, "/metrics?format=prometheus", nil).Body.String()), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(name)[0])
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, value, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(strings.TrimSuffix(series, "}"), "{")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		if samples[name] == nil {
			samples[name] = make(map[string]float64)
		}
		samples[name][labels] = v
	}

	promOnly := make(map[string]bool)
	declared := make(map[string]bool)
	for _, d := range declarations(reflect.TypeOf(metricsDoc{}), nil, promOnly) {
		declared[d.family] = true
		got, inJSON := any(doc), true
		for i, key := range d.path {
			m, ok := got.(map[string]any)
			if got, inJSON = m[key], ok && m[key] != nil; !inJSON {
				if ok && i == len(d.path)-1 && d.omitEmpty {
					got, inJSON = json.Number("0"), true
				}
				break
			}
		}
		text, inText := samples[d.family]
		if inJSON != inText {
			t.Errorf("%s (%s): in JSON %v, in the text exposition %v", d.family, strings.Join(d.path, "."), inJSON, inText)
			continue
		}
		if !inJSON || volatileFamilies[d.family] {
			continue
		}
		want := map[string]any{"": got}
		if d.labeled {
			want = make(map[string]any)
			for op, v := range got.(map[string]any) {
				want[`op="`+op+`"`] = v
			}
		}
		if len(text) != len(want) {
			t.Errorf("%s: %d samples, JSON %s has %d", d.family, len(text), strings.Join(d.path, "."), len(want))
		}
		for labels, v := range want {
			jv, err := v.(json.Number).Float64()
			if err != nil {
				t.Fatalf("%s: JSON %v: %v", d.family, v, err)
			}
			if tv, ok := text[labels]; !ok || tv != jv {
				t.Errorf("%s{%s}: text %v (present %v), JSON %s = %v", d.family, labels, tv, ok, strings.Join(d.path, "."), jv)
			}
		}
	}
	for _, family := range families {
		if !declared[family] && !promOnly[family] && !handRendered[family] {
			t.Errorf("family %s is neither declared nor a hand-rendered row", family)
		}
	}
}
