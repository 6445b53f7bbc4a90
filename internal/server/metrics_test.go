package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/obs"
)

func TestLatencyRingPercentiles(t *testing.T) {
	var r latencyRing
	if count, p50, p95, p99, max := r.percentiles(); count != 0 || p50 != 0 || p95 != 0 || p99 != 0 || max != 0 {
		t.Fatal("empty ring must report zeros")
	}
	// 1..100 microseconds: nearest-rank percentiles are exact.
	for i := 1; i <= 100; i++ {
		r.observe(time.Duration(i) * time.Microsecond)
	}
	count, p50, p95, p99, max := r.percentiles()
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
	if p50 != 50 || p95 != 95 || p99 != 99 || max != 100 {
		t.Errorf("p50=%d p95=%d p99=%d max=%d, want 50/95/99/100", p50, p95, p99, max)
	}
}

func TestLatencyRingTailNotUnderReported(t *testing.T) {
	// Two samples: the tail percentiles must report the slow one.
	var r latencyRing
	r.observe(161 * time.Microsecond)
	r.observe(94 * time.Microsecond)
	_, p50, p95, p99, _ := r.percentiles()
	if p50 != 94 {
		t.Errorf("p50 = %d, want 94", p50)
	}
	if p95 != 161 || p99 != 161 {
		t.Errorf("p95=%d p99=%d, want 161/161", p95, p99)
	}
}

func TestLatencyRingWraps(t *testing.T) {
	var r latencyRing
	n := len(r.samples)
	for i := 0; i < n+10; i++ {
		r.observe(time.Duration(i+1) * time.Microsecond)
	}
	count, _, _, _, max := r.percentiles()
	if count != uint64(n+10) {
		t.Errorf("count = %d, want %d", count, n+10)
	}
	if max != int64(n+10) {
		t.Errorf("max = %d, want %d", max, n+10)
	}
	if r.n != n {
		t.Errorf("window size %d, want %d", r.n, n)
	}
}

// histogramObservations is a fixed list straddling bucket bounds of all three
// histograms (on a bound, one over, under the first, over the last).
var histogramObservations = []time.Duration{
	0, 9 * time.Microsecond, 10 * time.Microsecond, 11 * time.Microsecond,
	100 * time.Microsecond, 101 * time.Microsecond, 999 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 7 * time.Millisecond,
	time.Second, 1500 * time.Millisecond, 10 * time.Second, 11 * time.Second,
	1234567 * time.Nanosecond,
}

// TestHistogramExpositionGolden pins the /metrics output of the request
// latency and WAL fsync histograms, byte for byte, to what the three
// hand-rolled histogram types this one (obs.Histogram) replaced rendered
// for the same observations; the worker-labeled series goes through the
// same writer.
func TestHistogramExpositionGolden(t *testing.T) {
	s := New(Config{Ingest: true, WALDir: t.TempDir()})
	defer s.Close()
	workerHist := obs.NewHistogram(cluster.DurationBucketsUS)
	for _, d := range histogramObservations {
		s.metrics.observeLatency(d)
		s.metrics.fsyncHist.Observe(d)
		workerHist.Observe(d)
	}
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil))
	var got []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.Contains(line, "_duration_seconds") {
			got = append(got, line)
		}
	}
	if diff := strings.Join(got, "\n"); diff != goldenHistogramText {
		t.Errorf("histogram exposition changed:\n%s\nwant:\n%s", diff, goldenHistogramText)
	}

	var doc map[string]json.RawMessage
	getJSON(t, h, "/metrics", &doc)
	var ingest map[string]any
	if err := json.Unmarshal(doc["ingest"], &ingest); err != nil {
		t.Fatal(err)
	}
	if ingest["fsync_count"] != float64(15) || ingest["fsync_sum_us"] != float64(23512964) {
		t.Errorf("ingest JSON fsync_count/fsync_sum_us = %v/%v, want 15/23512964",
			ingest["fsync_count"], ingest["fsync_sum_us"])
	}

	var buf strings.Builder
	writeHistogram(&buf, "wlq_worker_query_duration_seconds", `worker="http://w1"`, workerHist.Snapshot())
	if buf.String() != goldenWorkerHistogramText {
		t.Errorf("worker histogram exposition changed:\n%s\nwant:\n%s", buf.String(), goldenWorkerHistogramText)
	}
}

const goldenHistogramText = `# HELP wlq_ingest_fsync_duration_seconds WAL fsync latency.
# TYPE wlq_ingest_fsync_duration_seconds histogram
wlq_ingest_fsync_duration_seconds_bucket{le="1e-05"} 3
wlq_ingest_fsync_duration_seconds_bucket{le="2.5e-05"} 4
wlq_ingest_fsync_duration_seconds_bucket{le="5e-05"} 4
wlq_ingest_fsync_duration_seconds_bucket{le="0.0001"} 5
wlq_ingest_fsync_duration_seconds_bucket{le="0.00025"} 6
wlq_ingest_fsync_duration_seconds_bucket{le="0.0005"} 6
wlq_ingest_fsync_duration_seconds_bucket{le="0.001"} 8
wlq_ingest_fsync_duration_seconds_bucket{le="0.0025"} 10
wlq_ingest_fsync_duration_seconds_bucket{le="0.005"} 10
wlq_ingest_fsync_duration_seconds_bucket{le="0.01"} 11
wlq_ingest_fsync_duration_seconds_bucket{le="0.025"} 11
wlq_ingest_fsync_duration_seconds_bucket{le="0.05"} 11
wlq_ingest_fsync_duration_seconds_bucket{le="0.1"} 11
wlq_ingest_fsync_duration_seconds_bucket{le="0.25"} 11
wlq_ingest_fsync_duration_seconds_bucket{le="0.5"} 11
wlq_ingest_fsync_duration_seconds_bucket{le="1"} 12
wlq_ingest_fsync_duration_seconds_bucket{le="+Inf"} 15
wlq_ingest_fsync_duration_seconds_sum 23.512964
wlq_ingest_fsync_duration_seconds_count 15
# HELP wlq_query_duration_seconds Request latency, all paths (success, error, timeout).
# TYPE wlq_query_duration_seconds histogram
wlq_query_duration_seconds_bucket{le="0.0001"} 5
wlq_query_duration_seconds_bucket{le="0.00025"} 6
wlq_query_duration_seconds_bucket{le="0.0005"} 6
wlq_query_duration_seconds_bucket{le="0.001"} 8
wlq_query_duration_seconds_bucket{le="0.0025"} 10
wlq_query_duration_seconds_bucket{le="0.005"} 10
wlq_query_duration_seconds_bucket{le="0.01"} 11
wlq_query_duration_seconds_bucket{le="0.025"} 11
wlq_query_duration_seconds_bucket{le="0.05"} 11
wlq_query_duration_seconds_bucket{le="0.1"} 11
wlq_query_duration_seconds_bucket{le="0.25"} 11
wlq_query_duration_seconds_bucket{le="0.5"} 11
wlq_query_duration_seconds_bucket{le="1"} 12
wlq_query_duration_seconds_bucket{le="2.5"} 13
wlq_query_duration_seconds_bucket{le="5"} 13
wlq_query_duration_seconds_bucket{le="10"} 14
wlq_query_duration_seconds_bucket{le="+Inf"} 15
wlq_query_duration_seconds_sum 23.512964
wlq_query_duration_seconds_count 15`

const goldenWorkerHistogramText = `wlq_worker_query_duration_seconds_bucket{worker="http://w1",le="0.001"} 8
wlq_worker_query_duration_seconds_bucket{worker="http://w1",le="0.005"} 10
wlq_worker_query_duration_seconds_bucket{worker="http://w1",le="0.01"} 11
wlq_worker_query_duration_seconds_bucket{worker="http://w1",le="0.025"} 11
wlq_worker_query_duration_seconds_bucket{worker="http://w1",le="0.05"} 11
wlq_worker_query_duration_seconds_bucket{worker="http://w1",le="0.1"} 11
wlq_worker_query_duration_seconds_bucket{worker="http://w1",le="0.25"} 11
wlq_worker_query_duration_seconds_bucket{worker="http://w1",le="0.5"} 11
wlq_worker_query_duration_seconds_bucket{worker="http://w1",le="1"} 12
wlq_worker_query_duration_seconds_bucket{worker="http://w1",le="2.5"} 13
wlq_worker_query_duration_seconds_bucket{worker="http://w1",le="5"} 13
wlq_worker_query_duration_seconds_bucket{worker="http://w1",le="+Inf"} 15
wlq_worker_query_duration_seconds_sum{worker="http://w1"} 23.512964
wlq_worker_query_duration_seconds_count{worker="http://w1"} 15
`
