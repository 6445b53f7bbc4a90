package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"wlq/internal/cluster"
	"wlq/internal/obs"
)

// Prometheus text exposition (format version 0.0.4) for GET
// /metrics?format=prometheus. Hand-rolled on purpose: the surface is a
// dozen scalar families plus one histogram, and the service stays
// dependency-free. Metric names follow the Prometheus conventions —
// `wlq_` prefix, `_total` suffix on counters, base units (seconds).

// promFamily writes one metric family: HELP, TYPE, then each sample.
type promSample struct {
	labels string // rendered label set incl. braces, e.g. `{op="choice"}`
	value  string
}

func writeFamily(w io.Writer, name, help, typ string, samples ...promSample) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s %s\n", name, s.labels, s.value)
	}
}

func gauge(v float64) []promSample {
	return []promSample{{value: strconv.FormatFloat(v, 'g', -1, 64)}}
}

func counter(v uint64) []promSample {
	return []promSample{{value: strconv.FormatUint(v, 10)}}
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

// writePrometheus emits the full exposition document.
func (s *Server) writePrometheus(w http.ResponseWriter) {
	doc := s.metricsSnapshot()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	writeFamily(w, "wlq_uptime_seconds", "Seconds since the service started.", "gauge",
		gauge(doc.UptimeSeconds)...)
	writeFamily(w, "wlq_logs_loaded", "Workflow logs loaded and indexed.", "gauge",
		gauge(float64(doc.LogsLoaded))...)
	// Storage backend as a one-hot labeled gauge, so dashboards can select
	// series by backend without string-valued metrics.
	backendSamples := make([]promSample, 0, 2)
	for _, b := range []string{"row", "columnar"} {
		v := "0"
		if doc.Backend == b {
			v = "1"
		}
		backendSamples = append(backendSamples, promSample{labels: `{backend="` + b + `"}`, value: v})
	}
	writeFamily(w, "wlq_storage_backend", "Active storage backend (one-hot).", "gauge",
		backendSamples...)
	writeFamily(w, "wlq_queries_total", "Queries received on POST /v1/query.", "counter",
		counter(doc.QueriesTotal)...)
	writeFamily(w, "wlq_query_errors_total", "Queries rejected or failed.", "counter",
		counter(doc.QueryErrors)...)
	writeFamily(w, "wlq_query_timeouts_total", "Queries aborted by the evaluation timeout.", "counter",
		counter(doc.QueryTimeouts)...)
	writeFamily(w, "wlq_slow_queries_total", "Queries slower than the slow-query threshold.", "counter",
		counter(doc.SlowQueries)...)
	writeFamily(w, "wlq_queries_shed_total", "Queries shed by admission control (429).", "counter",
		counter(doc.QueriesShed)...)
	writeFamily(w, "wlq_panics_recovered_total", "Panics converted to errors (handler or eval worker).", "counter",
		counter(doc.PanicsRecovered)...)
	writeFamily(w, "wlq_budget_aborts_total", "Evaluations aborted by a query budget (422).", "counter",
		counter(doc.BudgetAborts)...)
	writeFamily(w, "wlq_cost_rejected_total", "Queries rejected by the pre-flight cost ceiling (422).", "counter",
		counter(doc.CostRejected)...)
	writeFamily(w, "wlq_log_reloads_total", "Successful per-log hot reloads.", "counter",
		counter(doc.LogReloads)...)
	writeFamily(w, "wlq_log_reload_failures_total", "Hot reloads that quarantined a log.", "counter",
		counter(doc.LogReloadFailures)...)
	writeFamily(w, "wlq_coalesced_reloads_total", "Reload requests coalesced into an in-progress pass.", "counter",
		counter(doc.CoalescedReloads)...)
	writeFamily(w, "wlq_logs_quarantined", "Logs serving a last-good snapshot after a failed reload.", "gauge",
		gauge(float64(doc.LogsQuarantined))...)
	writeFamily(w, "wlq_sharded_queries_total", "Queries evaluated shard-by-shard in isolated failure domains.", "counter",
		counter(doc.ShardedQueries)...)
	writeFamily(w, "wlq_shard_retries_total", "Per-shard evaluation re-attempts (after backoff).", "counter",
		counter(doc.ShardRetries)...)
	writeFamily(w, "wlq_shards_failed_total", "Shards excluded from results after exhausting retries.", "counter",
		counter(doc.ShardsFailed)...)
	writeFamily(w, "wlq_shards_skipped_total", "Shards excluded by an open circuit breaker (no attempt).", "counter",
		counter(doc.ShardsSkipped)...)
	writeFamily(w, "wlq_partial_results_total", "Queries whose result excluded at least one shard.", "counter",
		counter(doc.PartialResults)...)
	writeFamily(w, "wlq_wids_excluded_total", "Workflow instances excluded from partial results.", "counter",
		counter(doc.WIDsExcluded)...)
	writeFamily(w, "wlq_shard_breakers_open", "Per-shard circuit breakers currently open or half-open.", "gauge",
		gauge(float64(doc.BreakersOpen))...)
	writeFamily(w, "wlq_admission_capacity", "Admission controller in-flight query bound (0 = unlimited).", "gauge",
		gauge(float64(doc.AdmissionCapacity))...)
	writeFamily(w, "wlq_admission_in_flight", "Queries currently admitted.", "gauge",
		gauge(float64(doc.AdmissionInFlight))...)
	writeFamily(w, "wlq_cache_hits_total", "Result-cache hits.", "counter",
		counter(doc.CacheHits)...)
	writeFamily(w, "wlq_cache_misses_total", "Result-cache misses.", "counter",
		counter(doc.CacheMisses)...)
	writeFamily(w, "wlq_cache_entries", "Result-cache entries resident.", "gauge",
		gauge(float64(doc.CacheEntries))...)
	writeFamily(w, "wlq_cache_evictions_total", "Result-cache entries displaced by LRU pressure.", "counter",
		counter(doc.CacheEvictions)...)
	writeFamily(w, "wlq_incidents_returned_total", "Incidents returned in query responses.", "counter",
		counter(doc.IncidentsReturned)...)
	writeFamily(w, "wlq_instances_evaluated_total", "Workflow instances evaluated.", "counter",
		counter(doc.InstancesEvaluated)...)
	writeFamily(w, "wlq_inflight_queries", "Queries currently being served.", "gauge",
		gauge(float64(doc.InflightQueries))...)
	writeFamily(w, "wlq_busy_workers", "Evaluation workers currently running.", "gauge",
		gauge(float64(doc.BusyWorkers))...)
	writeFamily(w, "wlq_worker_capacity", "Evaluation worker capacity (GOMAXPROCS).", "gauge",
		gauge(float64(doc.WorkerCapacity))...)
	writeFamily(w, "wlq_worker_utilization", "Busy workers over capacity.", "gauge",
		gauge(doc.WorkerUtilization)...)
	writeFamily(w, "wlq_flightrec_captured_total", "Query executions captured by the flight recorder.", "counter",
		counter(doc.FlightCaptured)...)
	writeFamily(w, "wlq_flightrec_entries", "Captures currently resident in the flight-recorder rings.", "gauge",
		gauge(float64(doc.FlightEntries))...)
	writeFamily(w, "wlq_adaptive_plans_total", "Plans ranked with measured selectivities from the statistics registry.", "counter",
		counter(doc.AdaptivePlans)...)
	writeFamily(w, "wlq_static_plans_total", "Plans ranked with the static model constants.", "counter",
		counter(doc.StaticPlans)...)

	// Cluster tier: coordinator fan-out counters and per-worker breaker
	// state, plus the worker-mode served-request counters. Emitted only on
	// cluster members so single-node scrapes stay compact.
	if cl := doc.Cluster; cl != nil {
		writeFamily(w, "wlq_cluster_workers", "Workers in the configured fleet.", "gauge",
			gauge(float64(cl.Workers))...)
		writeFamily(w, "wlq_cluster_workers_lost", "Workers currently probe-unhealthy or breaker-tripped.", "gauge",
			gauge(float64(len(cl.WorkersLost)))...)
		writeFamily(w, "wlq_cluster_queries_total", "Queries fanned out across the worker fleet.", "counter",
			counter(cl.ClusterQueries)...)
		writeFamily(w, "wlq_cluster_worker_requests_total", "HTTP requests issued to workers (retries and hedges included).", "counter",
			counter(cl.WorkerRequests)...)
		writeFamily(w, "wlq_cluster_worker_failures_total", "Worker requests that failed (transport error or non-200).", "counter",
			counter(cl.WorkerFailures)...)
		writeFamily(w, "wlq_cluster_worker_retries_total", "Worker request re-attempts (after backoff).", "counter",
			counter(cl.WorkerRetries)...)
		writeFamily(w, "wlq_cluster_hedges_total", "Straggler worker requests duplicated (hedging).", "counter",
			counter(cl.Hedges)...)
		writeFamily(w, "wlq_cluster_hedge_wins_total", "Hedged requests whose duplicate answered first.", "counter",
			counter(cl.HedgeWins)...)
		writeFamily(w, "wlq_cluster_workers_skipped_total", "Per-query worker exclusions by an open circuit breaker.", "counter",
			counter(cl.WorkersSkipped)...)
		if len(cl.WorkerHealth) > 0 {
			breakers := make([]promSample, 0, len(cl.WorkerHealth))
			for _, wh := range cl.WorkerHealth {
				v := "0"
				if wh.Breaker != "closed" {
					v = "1"
				}
				breakers = append(breakers, promSample{
					labels: `{worker="` + wh.Worker + `"}`, value: v,
				})
			}
			writeFamily(w, "wlq_cluster_worker_breaker_open",
				"Per-worker circuit breaker state (1 = open or half-open).", "gauge", breakers...)
		}
		writeFamily(w, "wlq_worker_queries_total", "Worker-mode requests served by this instance.", "counter",
			counter(cl.WorkerQueriesServed)...)
		writeFamily(w, "wlq_worker_query_errors_total", "Worker-mode requests this instance failed.", "counter",
			counter(cl.WorkerQueryErrors)...)
		// Per-worker request-duration histogram: one labeled series per
		// worker, cumulative buckets in seconds.
		if len(cl.WorkerDurations) > 0 {
			writeFamily(w, "wlq_worker_query_duration_seconds",
				"Coordinator-observed worker request round-trip time, per worker.", "histogram")
			for _, wd := range cl.WorkerDurations {
				writeHistogram(w, "wlq_worker_query_duration_seconds", "worker="+strconv.Quote(wd.Worker),
					obs.HistogramSnapshot{BoundsUS: cluster.DurationBucketsUS, Buckets: wd.Buckets, Count: wd.Count, SumUS: wd.SumUS})
			}
		}
	}

	// Durable live-ingestion tier: coordinator and WAL counters aggregated
	// over live logs, per-log watermark/queue gauges, and the WAL fsync
	// latency histogram. Emitted only when Config.Ingest is on.
	if ing := doc.Ingest; ing != nil {
		writeFamily(w, "wlq_ingest_appends_total", "Records durably appended and applied.", "counter",
			counter(ing.Accepted)...)
		writeFamily(w, "wlq_ingest_rejected_total", "Appends rejected for violating the log discipline (422).", "counter",
			counter(ing.Rejected)...)
		writeFamily(w, "wlq_ingest_shed_total", "Appends shed by apply-queue backpressure (429).", "counter",
			counter(ing.Shed)...)
		writeFamily(w, "wlq_ingest_replayed_total", "WAL records replayed into the index at startup or reload.", "counter",
			counter(ing.Replayed)...)
		writeFamily(w, "wlq_ingest_deduped_total", "WAL records skipped on replay as already in the snapshot.", "counter",
			counter(ing.Deduped)...)
		writeFamily(w, "wlq_ingest_cache_invalidations_total", "Cached results dropped by the per-append delta sweep.", "counter",
			counter(ing.CacheInvalidations)...)
		writeFamily(w, "wlq_ingest_wal_bytes_total", "Framed bytes written to WAL segments.", "counter",
			counter(ing.WALBytes)...)
		writeFamily(w, "wlq_ingest_wal_fsyncs_total", "Explicit WAL fsyncs issued.", "counter",
			counter(ing.WALFsyncs)...)
		writeFamily(w, "wlq_ingest_wal_rotations_total", "WAL segment rotations.", "counter",
			counter(ing.WALRotations)...)
		writeFamily(w, "wlq_ingest_wal_segments", "Live WAL segment files across logs.", "gauge",
			gauge(float64(ing.WALSegments))...)
		writeFamily(w, "wlq_ingest_wal_torn_bytes_total", "Bytes truncated as torn tails by recovery scans.", "counter",
			counter(uint64(ing.WALTornBytes))...)
		if len(ing.Logs) > 0 {
			lsns := make([]promSample, 0, len(ing.Logs))
			depth := make([]promSample, 0, len(ing.Logs))
			capy := make([]promSample, 0, len(ing.Logs))
			for _, ld := range ing.Logs {
				label := `{log="` + ld.Log + `"}`
				lsns = append(lsns, promSample{labels: label, value: strconv.FormatUint(ld.LastLSN, 10)})
				depth = append(depth, promSample{labels: label, value: strconv.Itoa(ld.QueueDepth)})
				capy = append(capy, promSample{labels: label, value: strconv.Itoa(ld.QueueCapacity)})
			}
			writeFamily(w, "wlq_ingest_last_lsn", "Per-log applied high-water mark.", "gauge", lsns...)
			writeFamily(w, "wlq_ingest_queue_depth", "Per-log append requests currently admitted.", "gauge", depth...)
			writeFamily(w, "wlq_ingest_queue_capacity", "Per-log append admission bound (0 = unlimited).", "gauge", capy...)
		}
		writeFamily(w, "wlq_ingest_fsync_duration_seconds", "WAL fsync latency.", "histogram")
		writeHistogram(w, "wlq_ingest_fsync_duration_seconds", "", s.metrics.fsyncHist.Snapshot())
	}

	// Per-operator Lemma 1 accounting, labeled by operator name.
	ops := []string{"consecutive", "sequential", "choice", "parallel"}
	comps := make([]promSample, 0, len(ops))
	outs := make([]promSample, 0, len(ops))
	for _, op := range ops {
		label := `{op="` + op + `"}`
		comps = append(comps, promSample{labels: label, value: strconv.FormatUint(doc.OperatorComparisons[op], 10)})
		outs = append(outs, promSample{labels: label, value: strconv.FormatUint(doc.OperatorOutputs[op], 10)})
	}
	writeFamily(w, "wlq_operator_comparisons_total",
		"Measured record-level comparisons per operator (Lemma 1 accounting).", "counter", comps...)
	writeFamily(w, "wlq_operator_outputs_total",
		"Incidents produced per operator.", "counter", outs...)

	writeFamily(w, "wlq_query_duration_seconds", "Request latency, all paths (success, error, timeout).", "histogram")
	writeHistogram(w, "wlq_query_duration_seconds", "", s.metrics.hist.Snapshot())
}
