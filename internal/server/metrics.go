package server

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/obs"
)

// metricsDoc is the GET /metrics document and the service's metric
// registry: the one declaration of every number /metrics serves. A field of
// an obs metric type (Counter, Gauge, OpCounter, *Histogram) is live — the
// request paths update it and both renderers read it where it lies; every
// other field is computed at scrape time (scrapeMetrics). The json tag is
// the field's key in the JSON document, the prom and help tags the family
// the Prometheus renderer (prometheus.go) emits for it — a counter when the
// family name ends in _total, a gauge otherwise, a histogram for an
// *obs.Histogram. A field without a prom tag is JSON-only; the labeled rows
// built at scrape time from several sources (workers_lost, worker_health,
// worker_durations, the ingest logs) are rendered by hand in prometheus.go.
type metricsDoc struct {
	UptimeSeconds      float64     `json:"uptime_seconds" prom:"wlq_uptime_seconds" help:"Seconds since the service started."`
	LogsLoaded         int         `json:"logs_loaded" prom:"wlq_logs_loaded" help:"Workflow logs loaded and indexed."`
	QueriesTotal       obs.Counter `json:"queries_total" prom:"wlq_queries_total" help:"Queries received on POST /v1/query."`
	QueryErrors        obs.Counter `json:"query_errors" prom:"wlq_query_errors_total" help:"Queries rejected or failed."`
	QueryTimeouts      obs.Counter `json:"query_timeouts" prom:"wlq_query_timeouts_total" help:"Queries aborted by the evaluation timeout."`
	CacheHits          obs.Counter `json:"cache_hits" prom:"wlq_cache_hits_total" help:"Result-cache hits."`
	CacheMisses        obs.Counter `json:"cache_misses" prom:"wlq_cache_misses_total" help:"Result-cache misses."`
	CacheEntries       int         `json:"cache_entries" prom:"wlq_cache_entries" help:"Result-cache entries resident."`
	CacheEvictions     uint64      `json:"cache_evictions" prom:"wlq_cache_evictions_total" help:"Result-cache entries displaced by LRU pressure."`
	CacheBodyBytes     int64       `json:"cache_body_bytes" prom:"wlq_cache_body_bytes" help:"Bytes of encoded incidents held by result-cache entries."`
	IncidentsReturned  obs.Counter `json:"incidents_returned" prom:"wlq_incidents_returned_total" help:"Incidents returned in query responses."`
	ResponseBytes      obs.Counter `json:"response_bytes_total" prom:"wlq_response_bytes_total" help:"Body bytes of the answers written by POST /v1/query."`
	InstancesEvaluated obs.Counter `json:"instances_evaluated" prom:"wlq_instances_evaluated_total" help:"Workflow instances evaluated."`
	SlowQueries        obs.Counter `json:"slow_queries" prom:"wlq_slow_queries_total" help:"Queries slower than the slow-query threshold."`
	// Resilience counters: load shed by admission control, panics converted
	// to errors (handler or eval worker), budget-tripped evaluations,
	// pre-flight cost-ceiling rejections, and hot-reload outcomes (a
	// coalesced reload joined an in-progress pass instead of starting one).
	QueriesShed       obs.Counter `json:"queries_shed" prom:"wlq_queries_shed_total" help:"Queries shed by admission control (429)."`
	PanicsRecovered   obs.Counter `json:"panics_recovered" prom:"wlq_panics_recovered_total" help:"Panics converted to errors (handler or eval worker)."`
	BudgetAborts      obs.Counter `json:"budget_aborts" prom:"wlq_budget_aborts_total" help:"Evaluations aborted by a query budget (422)."`
	CostRejected      obs.Counter `json:"cost_rejected" prom:"wlq_cost_rejected_total" help:"Queries rejected by the pre-flight cost ceiling (422)."`
	LogReloads        obs.Counter `json:"log_reloads" prom:"wlq_log_reloads_total" help:"Successful per-log hot reloads."`
	LogReloadFailures obs.Counter `json:"log_reload_failures" prom:"wlq_log_reload_failures_total" help:"Hot reloads that quarantined a log."`
	CoalescedReloads  obs.Counter `json:"coalesced_reloads" prom:"wlq_coalesced_reloads_total" help:"Reload requests coalesced into an in-progress pass."`
	LogsQuarantined   int         `json:"logs_quarantined" prom:"wlq_logs_quarantined" help:"Logs serving a last-good snapshot after a failed reload."`
	// Partial answers: results returned incomplete (or refused in strict
	// mode on a coordinator), and the workflow instances they excluded.
	PartialResults obs.Counter `json:"partial_results" prom:"wlq_partial_results_total" help:"Queries whose result excluded at least one instance or worker part."`
	WIDsExcluded   obs.Counter `json:"wids_excluded" prom:"wlq_wids_excluded_total" help:"Workflow instances excluded from partial results."`
	// Go runtime figures (runtime/metrics): the collector's CPU so far, and
	// the heap it marks.
	GoGCCPUSeconds  float64 `json:"go_gc_cpu_seconds" prom:"wlq_go_gc_cpu_seconds_total" help:"CPU seconds spent by the Go garbage collector (runtime estimate)."`
	GoHeapLiveBytes uint64  `json:"go_heap_live_bytes" prom:"wlq_go_heap_live_bytes" help:"Heap bytes the last Go garbage collection marked live."`
	GoHeapObjects   uint64  `json:"go_heap_objects" prom:"wlq_go_heap_objects" help:"Go heap objects allocated and not yet freed."`
	// Cluster is the distributed-tier section (nil on a single-node server
	// that is not in worker mode).
	Cluster *clusterMetricsDoc `json:"cluster,omitempty"`
	// Ingest is the durable live-ingestion section (nil unless
	// Config.Ingest): coordinator, WAL and delta-invalidation counters.
	Ingest            *ingestMetricsDoc `json:"ingest,omitempty"`
	AdmissionCapacity int               `json:"admission_capacity" prom:"wlq_admission_capacity" help:"Admission controller in-flight query bound (0 = unlimited)."`
	AdmissionInFlight int               `json:"admission_in_flight" prom:"wlq_admission_in_flight" help:"Queries currently admitted."`
	InflightQueries   obs.Gauge         `json:"inflight_queries" prom:"wlq_inflight_queries" help:"Queries currently being served."`
	WorkersPerQuery   int               `json:"workers_per_query"`
	BusyWorkers       obs.Gauge         `json:"busy_workers" prom:"wlq_busy_workers" help:"Evaluation workers currently running."`
	WorkerCapacity    int               `json:"worker_capacity" prom:"wlq_worker_capacity" help:"Evaluation worker capacity (GOMAXPROCS)."`
	WorkerUtilization float64           `json:"worker_utilization" prom:"wlq_worker_utilization" help:"Busy workers over capacity."`
	// Flight-recorder gauges: captures recorded over the service lifetime
	// and captures currently resident in the rings.
	FlightCaptured uint64 `json:"flightrec_captured" prom:"wlq_flightrec_captured_total" help:"Query executions captured by the flight recorder."`
	FlightEntries  int    `json:"flightrec_entries" prom:"wlq_flightrec_entries" help:"Captures currently resident in the flight-recorder rings."`

	// Latency is the exact-percentile view of the last 1,024 requests (the
	// ring lat); QueryDuration the lifetime histogram of the same
	// observations (Prometheus-only).
	Latency       latencyDoc     `json:"latency"`
	QueryDuration *obs.Histogram `json:"-" prom:"wlq_query_duration_seconds" help:"Request latency, all paths (success, error, timeout)."`
	// OperatorComparisons and OperatorOutputs are the service-lifetime
	// per-operator totals measured by the evaluator (Lemma 1 accounting).
	OperatorComparisons obs.OpCounter `json:"operator_comparisons" prom:"wlq_operator_comparisons_total" help:"Measured record-level comparisons per operator (Lemma 1 accounting)."`
	OperatorOutputs     obs.OpCounter `json:"operator_outputs" prom:"wlq_operator_outputs_total" help:"Incidents produced per operator."`

	start time.Time
	lat   latencyRing
	// fsyncHist is Ingest.FsyncDuration (nil without Config.Ingest), the
	// histogram every live log's WAL observes its fsyncs into.
	fsyncHist *obs.Histogram
	// scrape serializes scrapes: one scrape fills the scrape-time fields
	// and renders them before the next fills them again.
	scrape sync.Mutex
}

// clusterMetricsDoc is the distributed-tier section of the metrics
// document: the coordinator's fan-out counters (cluster.Stats, zero on a
// pure worker) and the worker-side served-request counters, beside the
// fleet's health filled in at scrape time. Present only on cluster members
// so single-node scrapes stay compact.
type clusterMetricsDoc struct {
	// Role is "coordinator", "worker", or "coordinator+worker".
	Role string `json:"role"`
	// Workers is the configured fleet size; WorkersLost the workers
	// currently probe-unhealthy or breaker-tripped; WorkerBreakersOpen the
	// count of not-closed per-worker breakers.
	Workers            int      `json:"workers,omitempty" prom:"wlq_cluster_workers" help:"Workers in the configured fleet."`
	WorkersLost        []string `json:"workers_lost,omitempty"`
	WorkerBreakersOpen int      `json:"worker_breakers_open"`
	// ClusterQueries counts queries fanned out (the fan-out detail —
	// requests, retries, skips — follows in cluster.Stats).
	ClusterQueries obs.Counter `json:"cluster_queries" prom:"wlq_cluster_queries_total" help:"Queries fanned out across the worker fleet."`
	*cluster.Stats
	// WorkerHealth is each worker's probe verdict and breaker state.
	WorkerHealth []cluster.WorkerHealth `json:"worker_health,omitempty"`
	// WorkerDurations is each worker's request-duration histogram (the
	// wlq_worker_query_duration_seconds series).
	WorkerDurations []cluster.WorkerDurations `json:"worker_durations,omitempty"`
	// WorkerQueriesServed/WorkerQueryErrors count worker-mode requests this
	// instance served (and failed) as an upstream.
	WorkerQueriesServed obs.Counter `json:"worker_queries_served" prom:"wlq_worker_queries_total" help:"Worker-mode requests served by this instance."`
	WorkerQueryErrors   obs.Counter `json:"worker_query_errors" prom:"wlq_worker_query_errors_total" help:"Worker-mode requests this instance failed."`
}

// newMetrics builds the registry for a server of the given config: the
// cluster section on a coordinator or worker (a pure worker's fan-out
// counters stay zero), the ingest section with Config.Ingest.
func newMetrics(cfg Config, coord *cluster.Coordinator) *metricsDoc {
	m := &metricsDoc{
		start:           time.Now(),
		WorkersPerQuery: cfg.Workers,
		QueryDuration:   obs.NewHistogram(latencyBucketsUS),
	}
	switch {
	case coord != nil:
		m.Cluster = &clusterMetricsDoc{Role: "coordinator", Stats: &coord.Stats}
		if cfg.WorkerMode {
			m.Cluster.Role = "coordinator+worker"
		}
	case cfg.WorkerMode:
		m.Cluster = &clusterMetricsDoc{Role: "worker", Stats: new(cluster.Stats)}
	}
	if cfg.Ingest {
		m.fsyncHist = obs.NewHistogram(fsyncBucketsUS)
		m.Ingest = &ingestMetricsDoc{FsyncDuration: m.fsyncHist}
	}
	return m
}

// observeLatency records one request's wall-clock latency in both the
// percentile ring and the histogram. It is called on EVERY request path —
// errors and timeouts included — so the percentiles are not survivorship-
// biased toward successful queries.
func (m *metricsDoc) observeLatency(d time.Duration) {
	m.lat.observe(d)
	m.QueryDuration.Observe(d)
}

// recordCostTable folds a run's Lemma 1 cost table — the local meter's, or
// on a fan-out run the fleet table the workers measured — into the
// service-wide per-operator totals.
func (m *metricsDoc) recordCostTable(rows []obs.CostRow) {
	for _, r := range rows {
		m.OperatorComparisons.Add(r.Op, r.Comparisons)
		m.OperatorOutputs.Add(r.Op, r.Outputs)
	}
}

// scrapeMetrics fills the metrics document's scrape-time fields: the
// gauges the logs, cache, admission controller, flight recorder, Go runtime,
// latency ring, cluster tier and ingest tier supply. The caller holds the
// scrape lock until it has rendered the document.
func (s *Server) scrapeMetrics(m *metricsDoc) {
	s.mu.RLock()
	m.LogsLoaded, m.LogsQuarantined = len(s.logs), len(s.quarantine)
	s.mu.RUnlock()
	m.UptimeSeconds = time.Since(m.start).Seconds()
	m.CacheEntries, m.CacheEvictions, m.CacheBodyBytes = s.cache.len(), s.cache.evicted(), s.cache.bodyBytes()
	m.AdmissionCapacity, m.AdmissionInFlight = s.admission.Capacity(), s.admission.InFlight()
	m.FlightCaptured, m.FlightEntries = s.flight.Captured(), s.flight.Len()
	m.WorkerCapacity = runtime.GOMAXPROCS(0)
	m.WorkerUtilization = float64(m.BusyWorkers.Load()) / float64(m.WorkerCapacity)
	rt := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/objects:objects"},
	}
	rtmetrics.Read(rt)
	m.GoGCCPUSeconds, m.GoHeapLiveBytes, m.GoHeapObjects = rt[0].Value.Float64(), rt[1].Value.Uint64(), rt[2].Value.Uint64()
	l := &m.Latency
	l.Count, l.P50, l.P95, l.P99, l.Max = m.lat.percentiles()
	if s.coord != nil {
		cl := m.Cluster
		cl.WorkersLost = s.coord.Lost()
		cl.WorkerBreakersOpen = s.coord.OpenBreakers()
		cl.WorkerHealth = s.coord.Health()
		cl.Workers = len(cl.WorkerHealth)
		cl.WorkerDurations = s.coord.Durations()
	}
	if m.Ingest != nil {
		s.scrapeIngest(m.Ingest)
	}
}

// latencyBucketsUS are the request-latency histogram upper bounds in
// microseconds (plus an implicit +Inf overflow bucket): 100µs to 10s,
// roughly logarithmic — the span between a cached lookup and the default
// request timeout.
var latencyBucketsUS = []int64{
	100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
	100000, 250000, 500000, 1000000, 2500000, 5000000, 10000000,
}

// fsyncBucketsUS are the WAL fsync duration histogram bounds in
// microseconds (plus an implicit +Inf bucket): 10µs — a page-cache sync on
// fast NVMe or tmpfs — up to 1s, where the disk is the ingest bottleneck.
var fsyncBucketsUS = []int64{
	10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
	25000, 50000, 100000, 250000, 500000, 1000000,
}

// latencyRing is a fixed-size ring of the most recent query latencies, in
// microseconds. Percentiles over a bounded recent window track current
// behavior instead of averaging over the whole process lifetime.
type latencyRing struct {
	mu      sync.Mutex
	samples [1024]int64
	n       int // filled slots, up to len(samples)
	next    int // write cursor
	count   uint64
	max     int64
}

func (r *latencyRing) observe(d time.Duration) {
	us := d.Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[r.next] = us
	r.next = (r.next + 1) % len(r.samples)
	if r.n < len(r.samples) {
		r.n++
	}
	r.count++
	if us > r.max {
		r.max = us
	}
}

// percentiles returns (count, p50, p95, p99, max) over the current window.
func (r *latencyRing) percentiles() (count uint64, p50, p95, p99, max int64) {
	r.mu.Lock()
	window := make([]int64, r.n)
	copy(window, r.samples[:r.n])
	count, max = r.count, r.max
	r.mu.Unlock()
	if len(window) == 0 {
		return count, 0, 0, 0, max
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	// Nearest-rank percentile: the smallest sample with at least p of the
	// window at or below it (never under-reports the tail).
	at := func(p float64) int64 {
		i := int(math.Ceil(p*float64(len(window)))) - 1
		if i < 0 {
			i = 0
		}
		return window[i]
	}
	return count, at(0.50), at(0.95), at(0.99), max
}

// latencyDoc is the latency section of the metrics document.
type latencyDoc struct {
	Count uint64 `json:"count"`
	P50   int64  `json:"p50_us"`
	P95   int64  `json:"p95_us"`
	P99   int64  `json:"p99_us"`
	Max   int64  `json:"max_us"`
}
