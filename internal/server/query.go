package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
	"wlq/internal/flightrec"
	"wlq/internal/obs"
	"wlq/internal/resilience"
)

// POST /v1/query as a pipeline of named stages over one per-request value:
//
//	admit → decode → plan → execute → respond
//
// admit sheds load; decode validates the body and resolves the log; plan
// parses, canonicalizes, probes the result cache, rewrites and applies the
// cost ceiling; execute runs the plan on the executor the log was bound to
// at load time and settles whether the outcome may be cached; respond
// encodes the answer. A stage that cannot continue writes the error
// response itself and returns false. POST /v1/worker/query
// (worker.go) reuses admit, the execute stage and the error table.

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	// Log names the loaded log to query (optional when one log is loaded).
	Log string `json:"log"`
	// Query is the incident-pattern query text.
	Query string `json:"query"`
	// Mode selects the answer shape: "incidents" (default), "exists",
	// "count", or "instances".
	Mode string `json:"mode,omitempty"`
	// Strategy overrides the join implementation: "merge" or "naive".
	Strategy string `json:"strategy,omitempty"`
	// NoOptimize evaluates the pattern exactly as written, bypassing both
	// the Theorem 2–5 rewriter and the cache.
	NoOptimize bool `json:"no_optimize,omitempty"`
	// Workers overrides the per-query parallelism (capped by the server's
	// configured value).
	Workers int `json:"workers,omitempty"`
	// MaxResults truncates the incidents array of an "incidents" response
	// (the full set is still computed and cached; the other modes have no
	// array to truncate and compute no set); 0 returns everything.
	MaxResults int `json:"max_results,omitempty"`
	// TimeoutMS lowers the per-request timeout; it cannot raise it above
	// the server's configured value.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Trace enables execution tracing: the response carries the span tree
	// and the per-operator Lemma 1 cost table. Traced queries bypass the
	// result cache (a cached result has no fresh evaluation to measure).
	Trace bool `json:"trace,omitempty"`
	// Partial opts into degraded mode: when instances (or, on a cluster
	// coordinator, workers' parts) are lost to faults, accept the answer over
	// the rest as a 206 response whose completeness object names the excluded
	// wids, instead of a 500 (a 502 on a coordinator).
	Partial bool `json:"partial,omitempty"`
}

// The POST /v1/query result is one JSON object: queryHead's members, then
// the answer array of the mode — "instances" (wids) or "incidents" (the
// cluster incident codec), omitted when empty or when the mode has none —
// then queryTail's. respond writes it in exactly those three pieces, so an
// incidents array that is already encoded (the cache holds it) is never
// encoded again; count, exists and elapsed_us stay ahead of the array, where
// a client that only wants them can stop reading.

// queryHead is the part of the result ahead of the answer array.
type queryHead struct {
	Log       string `json:"log"`
	Query     string `json:"query"`
	Canonical string `json:"canonical"`
	Plan      string `json:"plan"`
	Strategy  string `json:"strategy"`
	Mode      string `json:"mode"`
	Cached    bool   `json:"cached"`
	ElapsedUS int64  `json:"elapsed_us"`
	Count     int    `json:"count"`
	Exists    bool   `json:"exists"`
}

// queryTail is the part of the result after the answer array.
type queryTail struct {
	Truncated bool `json:"truncated,omitempty"`
	// Trace is present when the request set "trace": true — the span tree
	// and per-operator cost table of this evaluation.
	Trace *obs.QueryTrace `json:"trace,omitempty"`
	// Partial is true when wids were lost and the result covers only the
	// rest (HTTP 206; requires "partial": true in the request). Completeness
	// is present on a partial answer and on every cluster evaluation, and
	// says exactly which wid ranges the result covers.
	Partial      bool                  `json:"partial,omitempty"`
	Completeness *cluster.Completeness `json:"completeness,omitempty"`
}

// executor is how the server's queries are evaluated. New picks it once —
// the only place the cluster / local decision is made — so the request path
// never asks which tier it is on.
type executor struct {
	// goroutines is an upper bound on how many goroutines of this process
	// evaluate one query over the given number of instances that asked for
	// the given parallelism (0 = no preference): what the query holds on the
	// busy_workers gauge while it runs. The scan caps its goroutines by the
	// plan's candidate instances, which only it knows, so a plan with at
	// most one candidate holds the configured workers on the gauge and runs
	// one goroutine.
	goroutines func(requested, instances int) int
	// run evaluates the plan over the request's version of the named log and
	// answers in the given shape; workers is goroutines' answer.
	run func(ctx context.Context, log string, src *colstore.Store, plan pattern.Node, opts eval.Options, workers int, shape eval.Shape) execution
}

// execution is the one outcome type of the execute stage, whichever tier
// ran the plan.
type execution struct {
	// res is incL(plan) in the shape the run was asked for, as it is served:
	// an incidents answer in wire form, written by the scan goroutines that
	// evaluated it (eval.Evaluator.ServeCtx) or the coordinator's workers'
	// arrays as they arrived. A local run's names the instances it left out
	// (Excluded); a cluster run's losses are in comp.
	res   eval.Answer
	err   error
	stats eval.QueryStats
	// comp is the coverage of a cluster run, or of a local one that excluded
	// instances under "partial": true (nil otherwise).
	comp *cluster.Completeness
	// fan is a distributed run's fan-out (nil for a local one): the
	// per-worker summary and the trace id of its stitched subtrees.
	fan *cluster.Fanout
}

// newExecutor builds the server's executor from its config.
func (s *Server) newExecutor() executor {
	if s.coord != nil {
		// Distributed execution: the coordinator fans the optimized plan out
		// to the workers, one contiguous wid interval each, and merges their
		// answers; a lost worker degrades the result to a partial instead of
		// failing the query. The failure domains are the workers, and nothing
		// evaluates locally.
		return executor{
			goroutines: func(int, int) int { return 0 },
			run: func(ctx context.Context, log string, src *colstore.Store, plan pattern.Node, opts eval.Options, _ int, shape eval.Shape) (x execution) {
				s.metrics.Cluster.ClusterQueries.Add(1)
				x.fan = new(cluster.Fanout)
				x.res, x.comp, *x.fan, x.err = s.coord.Answer(ctx, log, plan, shape, cluster.ExecOptions{
					WIDs:     src.WIDs(),
					Strategy: opts.Strategy,
					Budget:   opts.Budget,
					Meter:    opts.Meter,
				}, &x.stats)
				return x
			},
		}
	}
	// Local execution: every instance is its own failure domain, and the
	// answer names the ones a panic excluded (execute settles whether that
	// is a partial answer or a failure).
	return executor{
		goroutines: func(requested, instances int) int {
			w := s.cfg.Workers
			if requested > 0 && requested < w {
				w = requested
			}
			return max(min(w, instances), 1)
		},
		run: func(ctx context.Context, _ string, src *colstore.Store, plan pattern.Node, opts eval.Options, workers int, shape eval.Shape) (x execution) {
			x.res, x.err = eval.New(src, opts).ServeCtx(ctx, plan, src.WIDs(), workers, shape, &x.stats)
			return x
		},
	}
}

// execute is the evaluation stage of both query endpoints: it holds the
// busy-worker gauge up by the run's local parallelism for as long as the
// run evaluates, and accounts the instances it covered.
func (s *Server) execute(local int, run func() execution) execution {
	s.metrics.BusyWorkers.Add(int64(local))
	defer s.metrics.BusyWorkers.Add(int64(-local))
	x := run()
	s.metrics.InstancesEvaluated.Add(uint64(x.stats.Instances))
	return x
}

// admit is the first stage of both query endpoints. Admission control
// sheds immediately rather than queue behind a saturated worker pool — a
// bounded, fast 429 beats an unbounded, slow 504 (clients can back off;
// goodput is preserved under overload). On false the Retry-After header is
// set and the returned document is the 429 body; on true the caller owes
// s.admission.Release.
func (s *Server) admit(w http.ResponseWriter, who string) (errorDoc, bool) {
	if s.admission.TryAcquire() {
		return errorDoc{}, true
	}
	s.metrics.QueriesShed.Add(1)
	retry := retryAfterSeconds(s.admission.RetryAfter())
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	return errorDoc{
		Error: fmt.Sprintf("%s saturated: %d queries in flight (limit %d)",
			who, s.admission.InFlight(), s.admission.Capacity()),
		RetryAfterSeconds: retry,
	}, false
}

// evalFailure is the one evaluation-error → HTTP status table, shared by
// /v1/query and /v1/worker/query. It counts the failure class, logs a
// recovered panic, and returns the capture status, the HTTP code and the
// error body. fleetLost marks a distributed run that failed although the
// client is still there: every wid-holding worker failed or was skipped by
// its breaker (a single lost worker degrades to a partial instead).
func (s *Server) evalFailure(err error, fleetLost bool, timeout time.Duration, logName, query string) (flightrec.Status, int, errorDoc) {
	var be *resilience.BudgetError
	var pe *resilience.PanicError
	switch {
	case errors.As(err, &be):
		// Deterministic: a coordinator must not retry a worker's 422.
		s.metrics.BudgetAborts.Add(1)
		return flightrec.StatusBudget, http.StatusUnprocessableEntity, errorDoc{
			Error:           fmt.Sprintf("query aborted: %v", be),
			BudgetDimension: be.Dimension,
			BudgetLimit:     be.Limit,
			BudgetMeasured:  be.Measured,
		}
	case errors.As(err, &pe):
		s.recordPanic(pe, logName, query)
		return flightrec.StatusPanic, http.StatusInternalServerError, errorDoc{
			Error:      "evaluation fault; the query was isolated and the service keeps serving",
			IncidentID: pe.IncidentID,
		}
	case fleetLost:
		// 502: the upstreams failed us.
		return flightrec.StatusError, http.StatusBadGateway, errorDoc{
			Error: fmt.Sprintf("cluster evaluation failed: %v", err),
		}
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.QueryTimeouts.Add(1)
		return flightrec.StatusTimeout, http.StatusGatewayTimeout, errorDoc{
			Error: fmt.Sprintf("query exceeded the %v evaluation timeout", timeout),
		}
	default:
		return flightrec.StatusError, http.StatusInternalServerError, errorDoc{
			Error: fmt.Sprintf("evaluation aborted: %v", err),
		}
	}
}

// recordPanic counts and logs a panic recovered in an evaluation, with the
// stack its incident id correlates.
func (s *Server) recordPanic(pe *resilience.PanicError, logName, query string) {
	s.metrics.PanicsRecovered.Add(1)
	if s.cfg.Logger != nil {
		s.cfg.Logger.Error("panic recovered in evaluation",
			"incident_id", pe.IncidentID,
			"log", logName,
			"query", query,
			"panic", fmt.Sprint(pe.Value),
			"stack", string(pe.Stack),
		)
	}
}

// queryRun carries one POST /v1/query request through the stages.
type queryRun struct {
	s       *Server
	w       http.ResponseWriter
	started time.Time

	// Set by decode.
	req  queryRequest
	mode string
	// shape is what the mode needs evaluated: the incident set, the instance
	// list, or — for count and exists, which every response carries — the
	// count alone.
	shape    eval.Shape
	strategy eval.Strategy
	entry    *logEntry
	// at is the store version every later stage reads.
	at *colstore.Store
	// capture is the request's flight-recorder record, filled in as the
	// stages learn things and recorded by finish on every exit path.
	capture flightrec.Capture
	// trace is created before parsing so the parse span covers it. With the
	// flight recorder on, EVERY execution is traced internally — the capture
	// carries the span tree and cost table whether or not the client asked
	// for them — but only an explicit "trace": true puts the trace in the
	// response (and bypasses the result cache to guarantee fresh
	// measurements; the internal trace does not change caching semantics).
	// Nil when neither wants one.
	trace *obs.Trace

	// Set by plan (with capture.Canonical): the cache identity and the
	// answer — cached, or still to be filled in by execute.
	cacheKey  string
	cacheable bool
	answer    *cacheEntry
	cached    bool
	// spent is the answer's lists once nothing keeps them past the response:
	// a local run's, not put in the cache (eval.Recycle).
	spent [][]byte
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.metrics.QueriesTotal.Add(1)
	if doc, ok := s.admit(w, "server"); !ok {
		writeJSON(w, http.StatusTooManyRequests, doc)
		return
	}
	defer s.admission.Release()
	s.metrics.InflightQueries.Add(1)
	defer s.metrics.InflightQueries.Add(-1)

	q := &queryRun{s: s, w: w, started: time.Now()}
	defer q.finish()
	if q.decode(r) && q.plan() && (q.cached || q.execute(r.Context())) {
		q.respond()
	}
	eval.Recycle(q.spent)
}

// finish runs on EVERY exit path — parse errors, timeouts and evaluation
// failures included — so the latency percentiles and histogram are not
// survivorship-biased toward successful queries. The slow-query log rides
// on the same hook, and so does the flight recorder: every exit path with a
// known query text lands in it (slow and failed executions additionally
// earn a slot in its notable ring).
func (q *queryRun) finish() {
	s := q.s
	elapsed := time.Since(q.started)
	s.metrics.observeLatency(elapsed)
	slow := s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery
	if slow {
		s.metrics.SlowQueries.Add(1)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("slow query",
				"query", q.req.Query,
				"log", q.req.Log,
				"duration_ms", float64(elapsed.Microseconds())/1000,
				"threshold_ms", float64(s.cfg.SlowQuery.Microseconds())/1000,
			)
		}
	}
	if s.flight != nil && q.req.Query != "" {
		q.capture.Time = time.Now()
		q.capture.Query = q.req.Query
		q.capture.ElapsedUS = elapsed.Microseconds()
		q.capture.Slow = slow
		s.flight.Record(q.capture)
	}
}

// fail stamps the outcome on the capture (finish records it) and writes the
// error response. It returns false so a stage can return q.fail(...).
func (q *queryRun) fail(st flightrec.Status, code int, doc errorDoc) bool {
	q.capture.Status, q.capture.HTTPStatus, q.capture.Error = st, code, doc.Error
	if doc.IncidentID != "" {
		q.capture.Error += " (incident " + doc.IncidentID + ")"
	}
	writeJSON(q.w, code, doc)
	return false
}

// reject fails a request that cannot be evaluated as asked.
func (q *queryRun) reject(code int, format string, args ...any) bool {
	q.s.metrics.QueryErrors.Add(1)
	return q.fail(flightrec.StatusError, code, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// decode reads and validates the request body, resolves the log and pins
// its version.
func (q *queryRun) decode(r *http.Request) bool {
	s := q.s
	r.Body = http.MaxBytesReader(q.w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q.req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return q.reject(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		}
		return q.reject(http.StatusBadRequest, "malformed request: %v", err)
	}
	if q.req.Query == "" {
		return q.reject(http.StatusBadRequest, "missing query")
	}
	q.mode = q.req.Mode
	switch q.mode {
	case "", "incidents":
		q.mode = "incidents"
	case "instances":
		q.shape = eval.ShapeInstances
	case "count", "exists":
		// A served exists is the count path: the response reports an exact
		// count in every mode.
		q.shape = eval.ShapeCount
	default:
		return q.reject(http.StatusBadRequest,
			"unknown mode %q (want incidents, exists, count or instances)", q.mode)
	}
	var err error
	if q.strategy, err = parseStrategy(q.req.Strategy, s.cfg.Strategy); err != nil {
		return q.reject(http.StatusBadRequest, "%v", err)
	}
	if q.req.Workers < 0 || q.req.MaxResults < 0 || q.req.TimeoutMS < 0 {
		return q.reject(http.StatusBadRequest, "workers, max_results and timeout_ms must be >= 0")
	}
	if q.entry, err = s.lookup(q.req.Log); err != nil {
		return q.reject(http.StatusNotFound, "%v", err)
	}
	q.capture.Log = q.entry.name
	q.capture.Generation = q.entry.gen
	q.at = q.entry.pin()
	if q.entry.live != nil {
		q.capture.IngestLSN = q.at.LastLSN()
	}
	if q.req.Trace || s.flight != nil {
		q.trace = obs.NewTrace("query")
	}
	return true
}

// plan parses and canonicalizes the query, probes the result cache and, on
// a miss, rewrites the pattern and holds it to the cost ceiling.
func (q *queryRun) plan() bool {
	s, entry := q.s, q.entry
	sp := q.trace.StartSpan("parse")
	p, err := pattern.Parse(q.req.Query)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return q.reject(http.StatusBadRequest, "parse error: %v", err)
	}
	sp.SetAttr("pattern", p.String())
	sp.SetAttr("atoms", len(pattern.Atoms(p)))
	sp.SetAttr("operators", pattern.Operators(p))
	sp.End()

	sp = q.trace.StartSpan("canonicalize")
	q.capture.Canonical = pattern.CanonicalKey(p)
	sp.SetAttr("key", q.capture.Canonical)
	sp.End()

	q.cacheKey = cacheKey(entry.name, entry.gen, q.capture.Canonical)
	// Traced queries bypass the result cache: a cached result carries no
	// fresh evaluation to measure, so a hit would return an empty or stale
	// cost table.
	q.cacheable = !q.req.NoOptimize && !q.req.Trace
	if q.cacheable {
		// An entry that holds less than the mode needs (a count, asked for
		// its incidents) is a miss: execute replaces it with a richer one.
		e, ok, stale := s.cache.get(q.cacheKey, q.at)
		if stale {
			// Only a live log's entries go stale (a static log's store is
			// fixed for the generation the key names), so Ingest is set.
			s.metrics.Ingest.CacheInvalidations.Add(1)
		}
		if ok && e.serves(q.shape) {
			q.answer, q.cached = e, true
			s.metrics.CacheHits.Add(1)
			q.capture.Cached = true
			q.capture.Plan = q.answer.planText
			// A cache hit ran no evaluation: the capture's trace carries the
			// parse/canonicalize spans but no eval spans or cost table.
			q.capture.Trace = q.queryTrace(nil, "")
			return true
		}
		s.metrics.CacheMisses.Add(1)
	}

	plan := pattern.Node(p)
	if !q.req.NoOptimize {
		sp = q.trace.StartSpan("rewrite")
		var rt rewrite.Trace
		plan, rt = rewrite.Optimize(p, q.at)
		obs.RewriteSpans(sp, rt)
		sp.End()
	}
	q.answer = &cacheEntry{plan: plan, planText: plan.String(), shape: q.shape, atoms: pattern.Atoms(plan),
		origin: q.at.Origin(), lsn: q.at.LastLSN()}
	q.capture.Plan = q.answer.planText

	// Pre-flight admission: the cost model prices the plan the service
	// will actually run, so queries predicted to blow past the ceiling
	// are rejected before they consume a single worker.
	if ceiling := s.cfg.MaxPredictedCost; ceiling > 0 {
		if predicted := rewrite.NewEstimator(q.at).Cost(plan); predicted > ceiling {
			s.metrics.CostRejected.Add(1)
			return q.fail(flightrec.StatusError, http.StatusUnprocessableEntity, errorDoc{
				Error: fmt.Sprintf(
					"query rejected before evaluation: predicted cost %.3g exceeds the ceiling %.3g (tighten the pattern, or raise -max-predicted-cost)",
					predicted, ceiling),
				PredictedCost: predicted,
				CostCeiling:   ceiling,
			})
		}
	}
	return true
}

// cacheKey is the result cache's identity of an answer. The reload
// generation is part of it, so a hot reload makes every pre-reload entry
// unreachable (LRU pressure ages them out) without an invalidation sweep.
func cacheKey(log string, gen uint64, canonical string) string {
	var b strings.Builder
	b.Grow(len(log) + len(canonical) + 26)
	b.WriteString(log)
	b.WriteString("\x00gen=")
	b.WriteString(strconv.FormatUint(gen, 10))
	b.WriteByte(0)
	b.WriteString(canonical)
	return b.String()
}

// queryTrace closes the request's trace and assembles its QueryTrace — the
// one place a query's trace document is built. Nil without a trace. A
// non-empty traceID marks a stitched distributed trace: every locally
// recorded span gets coordinator attribution; grafted subtrees keep the
// worker stamp they arrived with.
func (q *queryRun) queryTrace(costTable []obs.CostRow, traceID string) *obs.QueryTrace {
	if q.trace == nil {
		return nil
	}
	q.trace.End()
	if traceID != "" {
		obs.StampWorker(q.trace.Root(), "coordinator")
	}
	return &obs.QueryTrace{
		Query:     q.req.Query,
		Plan:      q.answer.planText,
		Strategy:  q.strategy.String(),
		TraceID:   traceID,
		Spans:     q.trace.Root(),
		CostTable: costTable,
	}
}

// execute runs the plan on the log's executor, maps a failure to its
// response, and settles whether a success may enter the result cache.
func (q *queryRun) execute(ctx context.Context) bool {
	s, entry, plan := q.s, q.entry, q.answer.plan
	meter := eval.NewMeter(plan)
	opts := eval.Options{Strategy: q.strategy, Meter: meter, Budget: s.cfg.Budget}
	timeout := s.timeout(q.req.TimeoutMS)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	ctx = obs.WithTrace(ctx, q.trace)

	sp := q.trace.StartSpan("eval")
	src := q.at
	workers := s.exec.goroutines(q.req.Workers, len(src.WIDs()))
	x := s.execute(workers, func() execution { return s.exec.run(ctx, entry.name, src, plan, opts, workers, q.shape) })
	if ex := x.res.Excluded; len(ex) > 0 && x.err == nil {
		// A local run excluded instances. Strict, the first one's panic fails
		// the query (a 500, as any panic does); partial, the answer stands
		// over the rest and names exactly what it left out.
		if !q.req.Partial {
			x.err = ex[0].Err
		} else {
			for _, e := range ex {
				s.recordPanic(e.Err, entry.name, q.req.Query)
			}
			x.comp = excludedCompleteness(src.WIDs(), ex)
		}
	}
	// A partitioned run's coverage goes on the capture whatever the outcome.
	q.capture.Completeness, q.capture.Workers = x.comp, x.fan
	if x.comp != nil {
		s.metrics.WIDsExcluded.Add(uint64(x.comp.ExcludedWIDs))
	}
	if x.err != nil {
		sp.SetAttr("error", x.err.Error())
	} else {
		sp.SetAttr("strategy", q.strategy.String())
		sp.SetAttr("workers", x.stats.Workers)
		sp.SetAttr("instances", x.stats.Instances)
		sp.SetAttr("incidents", x.stats.Incidents)
		// A fleet of one worker scans the whole log on it.
		sp.SetAttr("answer", answerPath(plan, q.shape, q.strategy, x.fan == nil || x.fan.Workers == 1))
	}
	sp.End()
	// The run's one cost table feeds the per-operator totals and the trace.
	// The trace is assembled on success and failure alike: a failed
	// evaluation's capture still carries the partial cost table — every
	// operator that completed before the abort is accounted, which is
	// usually exactly what explains the failure. On a distributed run the
	// workers measured and the coordinator added their counters into meter:
	// it is the fleet's, over the merged worker answers alone.
	traceID := ""
	if x.fan != nil {
		traceID = x.fan.TraceID
	}
	costTable := obs.CostTable(meter)
	s.metrics.recordCostTable(costTable)
	q.capture.Trace = q.queryTrace(costTable, traceID)

	// Every failure below returns before the cache put: a timeout, budget
	// abort, fault or rejected partial never poisons it (see
	// TestCacheNotPoisoned*).
	if x.err != nil {
		st, code, doc := s.evalFailure(x.err, x.fan != nil && ctx.Err() == nil, timeout, entry.name, q.req.Query)
		switch {
		case st == flightrec.StatusBudget:
			// The partial cost table shows the client where the budget went.
			doc.CostTable = costTable
		case st == flightrec.StatusError:
			s.metrics.QueryErrors.Add(1)
			if code == http.StatusBadGateway {
				// The completeness names exactly what was lost.
				doc.Completeness = x.comp
			}
		}
		return q.fail(st, code, doc)
	}
	complete := x.comp == nil || x.comp.Complete
	if !complete {
		s.metrics.PartialResults.Add(1)
		// Strict mode on a coordinator: an incomplete result the client did
		// not opt into is a 502 (the upstream workers failed us), carrying the
		// completeness object so the caller sees what degraded mode would have
		// returned.
		if !q.req.Partial {
			s.metrics.QueryErrors.Add(1)
			return q.fail(flightrec.StatusPartial, http.StatusBadGateway, errorDoc{
				Error: fmt.Sprintf(
					"partial result: %d of %d workers lost (%d wids excluded); set \"partial\": true to accept degraded results",
					x.comp.Failed+x.comp.Skipped, x.comp.Shards, x.comp.ExcludedWIDs),
				Completeness: x.comp,
			})
		}
	}
	q.answer.res = x.res
	// A partial result is never cached: a later query must not be served an
	// excluded wid range's absence as if it were evaluated truth (the fault
	// may well be gone before the entry would age out).
	if complete && q.cacheable && s.cache != nil {
		s.cache.put(q.cacheKey, q.answer)
	} else if x.fan == nil {
		q.spent = x.res.Wire
	}
	return true
}

// respond writes the answer in the requested mode: head, answer array, tail
// (see queryHead). An untruncated incidents array is the entry's shared
// encoding, written by the run that filled it, so a cache hit encodes only
// the head; a truncated one is cut from it.
func (q *queryRun) respond() {
	answer, comp := q.answer.res, q.capture.Completeness
	head := queryHead{
		Log:       q.entry.name,
		Query:     q.req.Query,
		Canonical: q.capture.Canonical,
		Plan:      q.answer.planText,
		Strategy:  q.strategy.String(),
		Mode:      q.mode,
		Cached:    q.cached,
		Count:     answer.Count,
		Exists:    answer.Count > 0,
	}
	tail := queryTail{Completeness: comp, Partial: comp != nil && !comp.Complete}
	if q.req.Trace {
		// The internal always-on trace (flight recorder) is on the capture;
		// the response carries it only when explicitly requested.
		tail.Trace = q.capture.Trace
	}
	var (
		key   string
		array [][]byte
	)
	switch {
	case head.Count == 0:
		// An empty answer has no array in either mode.
	case q.mode == "instances":
		key, array = "instances", [][]byte{appendUints(nil, q.answer.instances())}
	case q.mode == "incidents":
		key, array = "incidents", answer.Wire
		n := head.Count
		if q.req.MaxResults > 0 && n > q.req.MaxResults {
			n, tail.Truncated = q.req.MaxResults, true
			array = incident.CutIncidents(array, n)
		}
		q.s.metrics.IncidentsReturned.Add(uint64(n))
	}
	head.ElapsedUS = time.Since(q.started).Microseconds()
	q.capture.Status, q.capture.HTTPStatus = flightrec.StatusOK, http.StatusOK
	if tail.Partial {
		// 206: a well-formed answer covering only part of the log, as the
		// request's "partial": true accepted.
		q.capture.Status, q.capture.HTTPStatus = flightrec.StatusPartial, http.StatusPartialContent
	}
	q.s.metrics.ResponseBytes.Add(uint64(writeSpliced(q.w, q.capture.HTTPStatus, head, key, array, tail)))
}

// excludedCompleteness is the coverage of a local answer that left the given
// instances out (ascending, all in wids): every instance is a failure domain,
// and each maximal run of excluded instances adjacent in the log is one
// failure, named by its exact wids and the panic of its first instance.
func excludedCompleteness(wids []uint64, ex []eval.Exclusion) *cluster.Completeness {
	c := &cluster.Completeness{
		Shards:       len(wids),
		Attempted:    len(wids),
		Succeeded:    len(wids) - len(ex),
		Failed:       len(ex),
		ExcludedWIDs: len(ex),
	}
	for j := 0; j < len(ex); {
		i, _ := slices.BinarySearch(wids, ex[j].WID)
		f := cluster.ShardOutcome{Shard: i, WIDMin: ex[j].WID, WIDMax: ex[j].WID, WIDs: 1, Attempts: 1, Cause: ex[j].Err.Error()}
		for j++; j < len(ex) && i+f.WIDs < len(wids) && wids[i+f.WIDs] == ex[j].WID; j++ {
			f.WIDMax = ex[j].WID
			f.WIDs++
		}
		c.Failures = append(c.Failures, f)
	}
	return c
}

// answerPath names how the evaluator arrives at an answer of the shape:
// from the store's statistics, reading no instance, when one scan covers the
// log's whole wid list (whole) and the plan is one they answer; by counting
// from position lists; or by enumerating incidents.
func answerPath(plan pattern.Node, shape eval.Shape, strategy eval.Strategy, whole bool) string {
	switch {
	case whole && eval.FromStatistics(plan, shape, strategy):
		return "statistics"
	case eval.Counted(plan, shape, strategy):
		return "counted"
	}
	return "enumerated"
}

// appendUints appends vs as a JSON array of numbers.
func appendUints(dst []byte, vs []uint64) []byte {
	dst = slices.Grow(dst, 2+6*len(vs)) // wids of up to five digits
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, v, 10)
	}
	return append(dst, ']')
}

// retryAfterSeconds converts an advisory retry delay to the whole-second
// Retry-After value. The delay is rounded UP (a sub-second hint must not
// truncate to "retry immediately", which under saturation synchronizes
// every shed client into a retry stampede), floored at 1 second, and
// spread with up to one second of jitter so a burst of simultaneous 429s
// does not come back as a burst of simultaneous retries.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs + mrand.Intn(2)
}

// timeout resolves the effective per-request timeout: the configured bound,
// lowered (never raised) by the request's timeout_ms.
func (s *Server) timeout(requestMS int) time.Duration {
	t := s.cfg.Timeout
	if requestMS > 0 {
		if rt := time.Duration(requestMS) * time.Millisecond; rt < t {
			t = rt
		}
	}
	return t
}

func parseStrategy(name string, fallback eval.Strategy) (eval.Strategy, error) {
	switch name {
	case "":
		return fallback, nil
	case "merge":
		return eval.StrategyMerge, nil
	case "naive":
		return eval.StrategyNaive, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want merge or naive)", name)
	}
}
