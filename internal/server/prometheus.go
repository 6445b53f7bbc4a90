package server

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"

	"wlq/internal/cluster"
	"wlq/internal/obs"
)

// Prometheus text exposition (format version 0.0.4) for GET
// /metrics?format=prometheus. Hand-rolled on purpose: the service stays
// dependency-free. The families are declared once, as prom/help tags on the
// metrics document (metricsDoc and its sections) that the JSON renderer
// encodes; writeDeclared walks that document, and only the labeled rows
// built at scrape time from several sources are written out by hand below.
// Metric names follow the Prometheus conventions — `wlq_` prefix, `_total`
// suffix on counters, base units (seconds).

// writeFamily writes one metric family: HELP, TYPE, then each sample.
func writeFamily(w io.Writer, name, help, typ string, samples ...obs.Sample) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	for _, s := range samples {
		if s.Labels != "" {
			s.Labels = "{" + s.Labels + "}"
		}
		fmt.Fprintf(w, "%s%s %s\n", name, s.Labels, s.Value)
	}
}

// labelEscaper escapes a label value per the text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// label renders one name="value" pair. Every label value passes through
// here: log names and worker URLs are operator-supplied, and one unescaped
// quote would make the whole scrape unparsable.
func label(name, value string) string {
	return name + `="` + labelEscaper.Replace(value) + `"`
}

// writeHistogram emits one histogram series (after a sample-less writeFamily
// for its HELP/TYPE header): cumulative buckets with bounds in seconds, then
// sum and count. labels is the series' rendered label list without braces
// (`worker="w1"`), empty for an unlabeled series.
func writeHistogram(w io.Writer, name, labels string, h obs.HistogramSnapshot) {
	seconds := func(us int64) string { return strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64) }
	prefix, braced := "", ""
	if labels != "" {
		prefix, braced = labels+",", "{"+labels+"}"
	}
	var cum uint64
	for i, le := range h.BoundsUS {
		cum += h.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, prefix, seconds(le), cum)
	}
	cum += h.Buckets[len(h.Buckets)-1]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced, seconds(h.SumUS))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced, h.Count)
}

// writeDeclared renders every family a metrics-document struct declares, in
// field order: a field with a prom tag becomes a histogram when it is an
// *obs.Histogram, otherwise a counter (`_total` suffix) or gauge of the
// samples an obs metric renders, or of the field's numeric value. Untagged
// sections — a nested or embedded struct, or a non-nil pointer to one — are
// walked in place.
func writeDeclared(w io.Writer, doc reflect.Value) {
	for i := 0; i < doc.NumField(); i++ {
		field, v := doc.Type().Field(i), doc.Field(i)
		name, help := field.Tag.Get("prom"), field.Tag.Get("help")
		if !field.IsExported() && !field.Anonymous {
			continue
		}
		if name == "" {
			if v.Kind() == reflect.Pointer && !v.IsNil() {
				v = v.Elem()
			}
			if v.Kind() == reflect.Struct {
				writeDeclared(w, v)
			}
			continue
		}
		typ := "gauge"
		if strings.HasSuffix(name, "_total") {
			typ = "counter"
		}
		switch m := v.Addr().Interface().(type) {
		case **obs.Histogram:
			writeFamily(w, name, help, "histogram")
			writeHistogram(w, name, "", (*m).Snapshot())
		case interface{ Samples() []obs.Sample }:
			writeFamily(w, name, help, typ, m.Samples()...)
		default:
			var value string
			switch v.Kind() {
			case reflect.Float64:
				value = strconv.FormatFloat(v.Float(), 'g', -1, 64)
			case reflect.Int, reflect.Int64:
				value = strconv.FormatInt(v.Int(), 10)
			default:
				value = strconv.FormatUint(v.Uint(), 10)
			}
			writeFamily(w, name, help, typ, obs.Sample{Value: value})
		}
	}
}

// writePrometheus emits the full exposition document: the declared families
// of the document the JSON renderer encodes, then the labeled rows.
func writePrometheus(w http.ResponseWriter, doc *metricsDoc) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeDeclared(w, reflect.ValueOf(doc).Elem())

	if cl := doc.Cluster; cl != nil {
		writeFamily(w, "wlq_cluster_workers_lost", "Workers currently probe-unhealthy or breaker-tripped.", "gauge",
			obs.Sample{Value: strconv.Itoa(len(cl.WorkersLost))})
		if len(cl.WorkerHealth) > 0 {
			var breakers []obs.Sample
			for _, wh := range cl.WorkerHealth {
				open := "0"
				if wh.Breaker != "closed" {
					open = "1"
				}
				breakers = append(breakers, obs.Sample{Labels: label("worker", wh.Worker), Value: open})
			}
			writeFamily(w, "wlq_cluster_worker_breaker_open",
				"Per-worker circuit breaker state (1 = open or half-open).", "gauge", breakers...)
		}
		// One labeled histogram series per worker.
		if len(cl.WorkerDurations) > 0 {
			const name = "wlq_worker_query_duration_seconds"
			writeFamily(w, name, "Coordinator-observed worker request round-trip time, per worker.", "histogram")
			for _, wd := range cl.WorkerDurations {
				writeHistogram(w, name, label("worker", wd.Worker),
					obs.HistogramSnapshot{BoundsUS: cluster.DurationBucketsUS, Buckets: wd.Buckets, Count: wd.Count, SumUS: wd.SumUS})
			}
		}
	}

	// Per-log watermark and apply-queue gauges.
	if ing := doc.Ingest; ing != nil && len(ing.Logs) > 0 {
		var lsns, depth, capacity []obs.Sample
		for _, ld := range ing.Logs {
			l := label("log", ld.Log)
			lsns = append(lsns, obs.Sample{Labels: l, Value: strconv.FormatUint(ld.LastLSN, 10)})
			depth = append(depth, obs.Sample{Labels: l, Value: strconv.Itoa(ld.QueueDepth)})
			capacity = append(capacity, obs.Sample{Labels: l, Value: strconv.Itoa(ld.QueueCapacity)})
		}
		writeFamily(w, "wlq_ingest_last_lsn", "Per-log applied high-water mark.", "gauge", lsns...)
		writeFamily(w, "wlq_ingest_queue_depth", "Per-log append requests currently admitted.", "gauge", depth...)
		writeFamily(w, "wlq_ingest_queue_capacity", "Per-log append admission bound (0 = unlimited).", "gauge", capacity...)
	}
}
