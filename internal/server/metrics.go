package server

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/obs"
)

// metrics holds the service counters exported at GET /metrics. Counters are
// atomics; the latency reservoir keeps the most recent samples and computes
// percentiles at scrape time (expvar-style: a flat JSON document, cheap to
// poll).
type metrics struct {
	start time.Time

	queriesTotal       atomic.Uint64
	queryErrors        atomic.Uint64
	queryTimeouts      atomic.Uint64
	cacheHits          atomic.Uint64
	cacheMisses        atomic.Uint64
	incidentsReturned  atomic.Uint64
	responseBytes      atomic.Uint64
	instancesEvaluated atomic.Uint64
	slowQueries        atomic.Uint64
	inflight           atomic.Int64
	busyWorkers        atomic.Int64

	// Resilience counters: load shed by admission control, panics converted
	// to errors (handler or eval worker), budget-tripped evaluations,
	// pre-flight cost-ceiling rejections, and hot-reload outcomes.
	queriesShed       atomic.Uint64
	panicsRecovered   atomic.Uint64
	budgetAborts      atomic.Uint64
	costRejected      atomic.Uint64
	logReloads        atomic.Uint64
	logReloadFailures atomic.Uint64
	// coalescedReloads counts reload requests that joined an in-progress
	// pass (single-flight) instead of starting their own.
	coalescedReloads atomic.Uint64

	// Partial-answer counters: results returned incomplete (or refused in
	// strict mode on a coordinator), and the workflow instances partial
	// answers excluded.
	partialResults atomic.Uint64
	widsExcluded   atomic.Uint64

	// Cluster counters. clusterQueries counts queries fanned out by the
	// coordinator (the fan-out detail — requests, retries, skips —
	// lives on cluster.Coordinator and is merged in at scrape time);
	// workerQueries/workerQueryErrors count this instance's served worker-
	// mode requests.
	clusterQueries    atomic.Uint64
	workerQueries     atomic.Uint64
	workerQueryErrors atomic.Uint64

	// Ingest counters owned by the server (the coordinator/WAL counters are
	// merged in at scrape time, like the cluster section):
	// ingestInvalidations counts cache entries a live log's request found
	// stale and dropped, and fsyncHist is the WAL fsync latency histogram.
	ingestInvalidations atomic.Uint64
	fsyncHist           *obs.Histogram

	// Per-operator totals, indexed by pattern.Op (1..4), folded in from
	// each evaluated query's eval.Meter (on a coordinator, from a fan-out
	// run's fleet cost table): the measured record-level comparison work
	// and incident outputs of every ⊙/≺/⊗/⊕ application.
	opComparisons [5]atomic.Uint64
	opOutputs     [5]atomic.Uint64

	lat  latencyRing
	hist *obs.Histogram
}

func newMetrics() *metrics {
	return &metrics{
		start:     time.Now(),
		fsyncHist: obs.NewHistogram(fsyncBucketsUS),
		hist:      obs.NewHistogram(latencyBucketsUS),
	}
}

// observeLatency records one request's wall-clock latency in both the
// percentile ring and the histogram. It is called on EVERY request path —
// errors and timeouts included — so the percentiles are not survivorship-
// biased toward successful queries.
func (m *metrics) observeLatency(d time.Duration) {
	m.lat.observe(d)
	m.hist.Observe(d)
}

// recordMeter folds one query's per-node measurements into the service-wide
// per-operator totals.
func (m *metrics) recordMeter(mt *eval.Meter) {
	for _, st := range mt.Snapshot() {
		if st.Atom || int(st.Op) >= len(m.opComparisons) {
			continue
		}
		m.opComparisons[st.Op].Add(st.Comparisons)
		m.opOutputs[st.Op].Add(st.Outputs)
	}
}

// recordCostTable is recordMeter for a fan-out run: the coordinator's own
// meter is empty, because its workers measured, so it folds the operator
// rows of the fleet cost table they returned.
func (m *metrics) recordCostTable(rows []obs.CostRow) {
	for _, r := range rows {
		for _, op := range meteredOps {
			if r.Op == op.Name() {
				m.opComparisons[op].Add(r.Comparisons)
				m.opOutputs[op].Add(r.Outputs)
			}
		}
	}
}

// meteredOps are the operators the per-operator totals are kept for, in the
// order both renderers list them.
var meteredOps = []pattern.Op{
	pattern.OpConsecutive, pattern.OpSequential, pattern.OpChoice, pattern.OpParallel,
}

// operatorTotals snapshots the per-operator counters keyed by operator name.
func (m *metrics) operatorTotals() (comparisons, outputs map[string]uint64) {
	comparisons = make(map[string]uint64, len(meteredOps))
	outputs = make(map[string]uint64, len(meteredOps))
	for _, op := range meteredOps {
		comparisons[op.Name()] = m.opComparisons[op].Load()
		outputs[op.Name()] = m.opOutputs[op].Load()
	}
	return comparisons, outputs
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

// metricsDoc is the full GET /metrics response and the one declaration of
// every metric: the json tag is the key in the JSON document, the prom and
// help tags the family the Prometheus renderer (prometheus.go) emits for the
// same field — a counter when the family name ends in _total, a gauge
// otherwise, a histogram for an obs.HistogramSnapshot. A field without a
// prom tag is JSON-only; the few families derived from non-scalar fields
// (workers_lost, worker_health, worker_durations, ingest logs, the
// per-operator maps) are rendered by hand in prometheus.go.
type metricsDoc struct {
	UptimeSeconds      float64 `json:"uptime_seconds" prom:"wlq_uptime_seconds" help:"Seconds since the service started."`
	LogsLoaded         int     `json:"logs_loaded" prom:"wlq_logs_loaded" help:"Workflow logs loaded and indexed."`
	QueriesTotal       uint64  `json:"queries_total" prom:"wlq_queries_total" help:"Queries received on POST /v1/query."`
	QueryErrors        uint64  `json:"query_errors" prom:"wlq_query_errors_total" help:"Queries rejected or failed."`
	QueryTimeouts      uint64  `json:"query_timeouts" prom:"wlq_query_timeouts_total" help:"Queries aborted by the evaluation timeout."`
	CacheHits          uint64  `json:"cache_hits" prom:"wlq_cache_hits_total" help:"Result-cache hits."`
	CacheMisses        uint64  `json:"cache_misses" prom:"wlq_cache_misses_total" help:"Result-cache misses."`
	CacheEntries       int     `json:"cache_entries" prom:"wlq_cache_entries" help:"Result-cache entries resident."`
	CacheEvictions     uint64  `json:"cache_evictions" prom:"wlq_cache_evictions_total" help:"Result-cache entries displaced by LRU pressure."`
	CacheBodyBytes     int64   `json:"cache_body_bytes" prom:"wlq_cache_body_bytes" help:"Bytes of encoded incidents held by result-cache entries."`
	IncidentsReturned  uint64  `json:"incidents_returned" prom:"wlq_incidents_returned_total" help:"Incidents returned in query responses."`
	ResponseBytes      uint64  `json:"response_bytes_total" prom:"wlq_response_bytes_total" help:"Body bytes of the answers written by POST /v1/query."`
	InstancesEvaluated uint64  `json:"instances_evaluated" prom:"wlq_instances_evaluated_total" help:"Workflow instances evaluated."`
	SlowQueries        uint64  `json:"slow_queries" prom:"wlq_slow_queries_total" help:"Queries slower than the slow-query threshold."`
	QueriesShed        uint64  `json:"queries_shed" prom:"wlq_queries_shed_total" help:"Queries shed by admission control (429)."`
	PanicsRecovered    uint64  `json:"panics_recovered" prom:"wlq_panics_recovered_total" help:"Panics converted to errors (handler or eval worker)."`
	BudgetAborts       uint64  `json:"budget_aborts" prom:"wlq_budget_aborts_total" help:"Evaluations aborted by a query budget (422)."`
	CostRejected       uint64  `json:"cost_rejected" prom:"wlq_cost_rejected_total" help:"Queries rejected by the pre-flight cost ceiling (422)."`
	LogReloads         uint64  `json:"log_reloads" prom:"wlq_log_reloads_total" help:"Successful per-log hot reloads."`
	LogReloadFailures  uint64  `json:"log_reload_failures" prom:"wlq_log_reload_failures_total" help:"Hot reloads that quarantined a log."`
	CoalescedReloads   uint64  `json:"coalesced_reloads" prom:"wlq_coalesced_reloads_total" help:"Reload requests coalesced into an in-progress pass."`
	LogsQuarantined    int     `json:"logs_quarantined" prom:"wlq_logs_quarantined" help:"Logs serving a last-good snapshot after a failed reload."`
	PartialResults     uint64  `json:"partial_results" prom:"wlq_partial_results_total" help:"Queries whose result excluded at least one instance or worker part."`
	WIDsExcluded       uint64  `json:"wids_excluded" prom:"wlq_wids_excluded_total" help:"Workflow instances excluded from partial results."`
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
	InflightQueries   int64             `json:"inflight_queries" prom:"wlq_inflight_queries" help:"Queries currently being served."`
	WorkersPerQuery   int               `json:"workers_per_query"`
	BusyWorkers       int64             `json:"busy_workers" prom:"wlq_busy_workers" help:"Evaluation workers currently running."`
	WorkerCapacity    int               `json:"worker_capacity" prom:"wlq_worker_capacity" help:"Evaluation worker capacity (GOMAXPROCS)."`
	WorkerUtilization float64           `json:"worker_utilization" prom:"wlq_worker_utilization" help:"Busy workers over capacity."`
	// Flight-recorder gauges: captures recorded over the service lifetime
	// and captures currently resident in the rings.
	FlightCaptured uint64 `json:"flightrec_captured" prom:"wlq_flightrec_captured_total" help:"Query executions captured by the flight recorder."`
	FlightEntries  int    `json:"flightrec_entries" prom:"wlq_flightrec_entries" help:"Captures currently resident in the flight-recorder rings."`

	// Latency is the exact-percentile view of the last 1,024 requests;
	// QueryDuration the lifetime histogram of the same observations
	// (Prometheus-only).
	Latency       latencyDoc            `json:"latency"`
	QueryDuration obs.HistogramSnapshot `json:"-" prom:"wlq_query_duration_seconds" help:"Request latency, all paths (success, error, timeout)."`
	// OperatorComparisons and OperatorOutputs are the service-lifetime
	// per-operator totals measured by the evaluator (Lemma 1 accounting).
	OperatorComparisons map[string]uint64 `json:"operator_comparisons"`
	OperatorOutputs     map[string]uint64 `json:"operator_outputs"`
}

// clusterMetricsDoc is the distributed-tier section of the metrics
// document: coordinator-side fan-out counters (merged from
// cluster.Coordinator.Stats at scrape time) and worker-side served-request
// counters. Emitted only on cluster members so single-node scrapes stay
// compact.
type clusterMetricsDoc struct {
	// Role is "coordinator", "worker", or "coordinator+worker".
	Role string `json:"role"`
	// Workers is the configured fleet size; WorkersLost the workers
	// currently probe-unhealthy or breaker-tripped; WorkerBreakersOpen the
	// count of not-closed per-worker breakers.
	Workers            int      `json:"workers,omitempty" prom:"wlq_cluster_workers" help:"Workers in the configured fleet."`
	WorkersLost        []string `json:"workers_lost,omitempty"`
	WorkerBreakersOpen int      `json:"worker_breakers_open"`
	// ClusterQueries counts queries fanned out; the coordinator's own
	// fan-out counters follow (zero on a pure worker).
	ClusterQueries uint64 `json:"cluster_queries" prom:"wlq_cluster_queries_total" help:"Queries fanned out across the worker fleet."`
	cluster.Stats
	// WorkerHealth is each worker's probe verdict and breaker state.
	WorkerHealth []cluster.WorkerHealth `json:"worker_health,omitempty"`
	// WorkerDurations is each worker's request-duration histogram (the
	// wlq_worker_query_duration_seconds series).
	WorkerDurations []cluster.WorkerDurations `json:"worker_durations,omitempty"`
	// WorkerQueriesServed/WorkerQueryErrors count worker-mode requests this
	// instance served (and failed) as an upstream.
	WorkerQueriesServed uint64 `json:"worker_queries_served" prom:"wlq_worker_queries_total" help:"Worker-mode requests served by this instance."`
	WorkerQueryErrors   uint64 `json:"worker_query_errors" prom:"wlq_worker_query_errors_total" help:"Worker-mode requests this instance failed."`
}

// clusterMetrics assembles the cluster section, or nil when this instance
// is neither coordinator nor worker.
func (s *Server) clusterMetrics() *clusterMetricsDoc {
	if s.coord == nil && !s.cfg.WorkerMode {
		return nil
	}
	doc := &clusterMetricsDoc{
		ClusterQueries:      s.metrics.clusterQueries.Load(),
		WorkerQueriesServed: s.metrics.workerQueries.Load(),
		WorkerQueryErrors:   s.metrics.workerQueryErrors.Load(),
	}
	switch {
	case s.coord != nil && s.cfg.WorkerMode:
		doc.Role = "coordinator+worker"
	case s.coord != nil:
		doc.Role = "coordinator"
	default:
		doc.Role = "worker"
	}
	if s.coord != nil {
		doc.Stats = s.coord.Stats()
		doc.WorkersLost = s.coord.Lost()
		doc.WorkerBreakersOpen = s.coord.OpenBreakers()
		doc.WorkerHealth = s.coord.Health()
		doc.Workers = len(doc.WorkerHealth)
		doc.WorkerDurations = s.coord.Durations()
	}
	return doc
}

// metricsSnapshot assembles the metrics document both renderers (JSON and
// Prometheus text) expose: the counters plus the gauges the logs, cache,
// admission controller, flight recorder, cluster tier and ingest tier
// supply.
func (s *Server) metricsSnapshot() metricsDoc {
	s.mu.RLock()
	logsLoaded, quarantined := len(s.logs), len(s.quarantine)
	s.mu.RUnlock()
	m, cache, adm, flight := s.metrics, s.cache, s.admission, s.flight
	count, p50, p95, p99, max := m.lat.percentiles()
	capacity := runtime.GOMAXPROCS(0)
	busy := m.busyWorkers.Load()
	util := 0.0
	if capacity > 0 {
		util = float64(busy) / float64(capacity)
	}
	opComparisons, opOutputs := m.operatorTotals()
	rt := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/objects:objects"},
	}
	rtmetrics.Read(rt)
	return metricsDoc{
		UptimeSeconds:       time.Since(m.start).Seconds(),
		LogsLoaded:          logsLoaded,
		QueriesTotal:        m.queriesTotal.Load(),
		QueryErrors:         m.queryErrors.Load(),
		QueryTimeouts:       m.queryTimeouts.Load(),
		CacheHits:           m.cacheHits.Load(),
		CacheMisses:         m.cacheMisses.Load(),
		CacheEntries:        cache.len(),
		CacheEvictions:      cache.evicted(),
		CacheBodyBytes:      cache.bodyBytes(),
		IncidentsReturned:   m.incidentsReturned.Load(),
		ResponseBytes:       m.responseBytes.Load(),
		InstancesEvaluated:  m.instancesEvaluated.Load(),
		SlowQueries:         m.slowQueries.Load(),
		QueriesShed:         m.queriesShed.Load(),
		PanicsRecovered:     m.panicsRecovered.Load(),
		BudgetAborts:        m.budgetAborts.Load(),
		CostRejected:        m.costRejected.Load(),
		LogReloads:          m.logReloads.Load(),
		LogReloadFailures:   m.logReloadFailures.Load(),
		CoalescedReloads:    m.coalescedReloads.Load(),
		LogsQuarantined:     quarantined,
		PartialResults:      m.partialResults.Load(),
		WIDsExcluded:        m.widsExcluded.Load(),
		GoGCCPUSeconds:      rt[0].Value.Float64(),
		GoHeapLiveBytes:     rt[1].Value.Uint64(),
		GoHeapObjects:       rt[2].Value.Uint64(),
		Cluster:             s.clusterMetrics(),
		Ingest:              s.ingestMetrics(),
		AdmissionCapacity:   adm.Capacity(),
		AdmissionInFlight:   adm.InFlight(),
		InflightQueries:     m.inflight.Load(),
		WorkersPerQuery:     s.cfg.Workers,
		BusyWorkers:         busy,
		WorkerCapacity:      capacity,
		WorkerUtilization:   util,
		FlightCaptured:      flight.Captured(),
		FlightEntries:       flight.Len(),
		Latency:             latencyDoc{Count: count, P50: p50, P95: p95, P99: p99, Max: max},
		QueryDuration:       m.hist.Snapshot(),
		OperatorComparisons: opComparisons,
		OperatorOutputs:     opOutputs,
	}
}
