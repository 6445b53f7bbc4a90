// Package cluster takes the per-instance failure domains of a single node
// to the network: a coordinator splits a log's workflow instances into one
// contiguous wid range per worker node (shard.Partition), fans each query
// out over HTTP, and concatenates the per-worker answers in range order — so
// a distributed evaluation is digest-identical to a single-node one, and a
// lost worker degrades the answer (a 206 with a Completeness document naming
// the missing wid interval) instead of failing it.
//
// Definition 4 makes incident semantics strictly per-instance, so the
// distribution is exact: no cross-worker joins exist, and each worker
// evaluates the wids of its interval against its local copy of the log
// independently. What the network tier adds over one node is real failure
// independence — a worker process can die, hang, or partition without
// taking the coordinator's process down — paid for with the full set of
// network-robustness machinery:
//
//   - per-worker attempt timeouts and capped-exponential retry with jitter
//     (reusing shard.Backoff);
//   - per-worker circuit breakers (shard.Breaker on the resilience clock
//     seam) so a dead node is skipped, not re-dialed by every query;
//   - hedged requests: a straggling worker gets a duplicate request after
//     a configurable delay, and the first answer wins;
//   - periodic health probing that feeds the coordinator's /readyz;
//   - per-worker budget slices (resilience.Budget.Slice) so one slow
//     worker cannot spend the whole query's allowance; a worker that trips
//     its slice fails the whole query with the budget error (a 422, even
//     where one node holding the whole budget would have answered).
//
// Placement needs no agreement beyond the request itself: every worker loads
// the whole log, the coordinator sends each one the closed interval
// [wid_min, wid_max] of its part, and the worker echoes how many instances
// of its own copy lie inside it — a copy that differs from the
// coordinator's anywhere in the interval is caught by the count.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/obs"
	"wlq/internal/resilience"
	"wlq/internal/shard"
)

// Coordinator defaults.
const (
	// DefaultWorkerTimeout bounds one worker request attempt.
	DefaultWorkerTimeout = 5 * time.Second
	// DefaultMaxAttempts is the request attempt cap per worker per query
	// (1 initial try + retries). Networks fail transiently, but each retry
	// holds the client's latency budget, so the default stays low.
	DefaultMaxAttempts = 2
	// DefaultProbeInterval paces the background worker health probes.
	DefaultProbeInterval = 5 * time.Second
	// DefaultMaxTraceSpans caps the span subtree one worker may return on a
	// traced query. Big enough for any realistic plan tree (spans mirror
	// plan nodes, not instances), small enough that a fleet of subtrees
	// cannot balloon a flight-recorder capture.
	DefaultMaxTraceSpans = 2048
)

// Config tunes a coordinator. Workers is required; every other zero field
// resolves to a sensible default.
type Config struct {
	// Workers are the worker base URLs (e.g. "http://10.0.0.7:8080"). Their
	// order is the placement: the i-th worker evaluates the i-th wid range.
	Workers []string
	// WorkerTimeout deadlines each worker request attempt
	// (0 = DefaultWorkerTimeout).
	WorkerTimeout time.Duration
	// RetryPolicy governs each worker's request attempts, backoff and circuit
	// breaker. A zero MaxAttempts means DefaultMaxAttempts.
	shard.RetryPolicy
	// HedgeAfter, when positive, duplicates a worker request that has not
	// answered within the delay and takes whichever response lands first —
	// straggler insurance against a slow connection or a stalled accept
	// queue. The hedge goes to the same worker (a wid range is placed on
	// exactly one node), so it cannot help a node that is down, only one that
	// is slow.
	HedgeAfter time.Duration
	// Transport is the HTTP transport for worker requests (nil =
	// http.DefaultTransport). Chaos suites inject faultinject.FlakyRoundTripper
	// here to fail, slow or blackhole exact requests without killing
	// processes.
	Transport http.RoundTripper
	// DisableTracePropagation turns off distributed tracing: no traceparent
	// header on worker requests, no span subtrees or cost tables in worker
	// responses. The zero value propagates whenever the query carries an
	// obs.Trace.
	DisableTracePropagation bool
	// MaxTraceSpans caps the span subtree each worker may return
	// (0 = DefaultMaxTraceSpans).
	MaxTraceSpans int
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = DefaultWorkerTimeout
	}
	c.RetryPolicy = c.RetryPolicy.WithDefaults(DefaultMaxAttempts)
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.MaxTraceSpans <= 0 {
		c.MaxTraceSpans = DefaultMaxTraceSpans
	}
	return c
}

// workerState is one worker's long-lived coordinator-side state: the
// circuit breaker accumulating failure history across queries, the
// request-duration histogram, and the latest health-probe verdict.
type workerState struct {
	name    string
	breaker *shard.Breaker
	hist    *obs.Histogram

	mu       sync.Mutex
	healthy  bool
	probeErr string
}

// Stats is a snapshot of the coordinator's fan-out counters. The prom and
// help tags declare each counter's Prometheus family for the server's
// /metrics renderer, which embeds this struct in its metrics document.
type Stats struct {
	// Fanouts counts distributed query executions.
	Fanouts uint64 `json:"fanouts"`
	// WorkerRequests counts HTTP requests issued to workers (hedges and
	// retries included); WorkerFailures those that errored.
	WorkerRequests uint64 `json:"worker_requests" prom:"wlq_cluster_worker_requests_total" help:"HTTP requests issued to workers (retries and hedges included)."`
	WorkerFailures uint64 `json:"worker_failures" prom:"wlq_cluster_worker_failures_total" help:"Worker requests that failed (transport error or non-200)."`
	// WorkerRetries counts re-attempts after backoff.
	WorkerRetries uint64 `json:"worker_retries" prom:"wlq_cluster_worker_retries_total" help:"Worker request re-attempts (after backoff)."`
	// Hedges counts duplicated straggler requests; HedgeWins those whose
	// duplicate answered first.
	Hedges    uint64 `json:"hedges" prom:"wlq_cluster_hedges_total" help:"Straggler worker requests duplicated (hedging)."`
	HedgeWins uint64 `json:"hedge_wins" prom:"wlq_cluster_hedge_wins_total" help:"Hedged requests whose duplicate answered first."`
	// WorkersSkipped counts per-query worker exclusions by an open breaker.
	WorkersSkipped uint64 `json:"workers_skipped" prom:"wlq_cluster_workers_skipped_total" help:"Per-query worker exclusions by an open circuit breaker."`
}

// Coordinator fans queries out to the worker fleet and merges the answers.
// It is safe for concurrent use and meant to be long-lived: per-worker
// breakers and health state persist across queries.
type Coordinator struct {
	cfg     Config
	client  *http.Client
	workers []*workerState
	scatter shard.Scatter

	fanouts        atomic.Uint64
	workerRequests atomic.Uint64
	workerFailures atomic.Uint64
	workerRetries  atomic.Uint64
	hedges         atomic.Uint64
	hedgeWins      atomic.Uint64
	workersSkipped atomic.Uint64
}

// New builds a coordinator over the configured workers.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	seen := make(map[string]bool, len(cfg.Workers))
	for _, w := range cfg.Workers {
		if w == "" {
			return nil, errors.New("cluster: empty worker URL")
		}
		if seen[w] {
			return nil, fmt.Errorf("cluster: duplicate worker %q", w)
		}
		seen[w] = true
	}
	workers := make([]*workerState, len(cfg.Workers))
	for i, name := range cfg.Workers {
		workers[i] = &workerState{
			name:    name,
			breaker: shard.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
			hist:    obs.NewHistogram(DurationBucketsUS),
			healthy: true, // optimistic until a probe or request says otherwise
		}
	}
	return &Coordinator{
		cfg: cfg,
		// The per-attempt deadline rides the request context, not the
		// client, so hedges and probes can choose their own.
		client:  &http.Client{Transport: cfg.Transport},
		workers: workers,
		scatter: shard.Scatter{RetryPolicy: cfg.RetryPolicy, Retryable: retryableErr},
	}, nil
}

// Stats snapshots the fan-out counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Fanouts:        c.fanouts.Load(),
		WorkerRequests: c.workerRequests.Load(),
		WorkerFailures: c.workerFailures.Load(),
		WorkerRetries:  c.workerRetries.Load(),
		Hedges:         c.hedges.Load(),
		HedgeWins:      c.hedgeWins.Load(),
		WorkersSkipped: c.workersSkipped.Load(),
	}
}

// Fanout summarizes one distributed execution: the fleet-level counts plus
// structured per-worker detail. Its JSON form is what the flight recorder
// stores and serves for a distributed capture.
type Fanout struct {
	// Workers is the number of workers owning at least one wid this query.
	Workers int `json:"workers"`
	// Attempted counts workers that received at least one request; Succeeded
	// those whose answer is in the merged result; Failed those excluded
	// after exhausting attempts; Skipped those excluded by an open breaker.
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed,omitempty"`
	Skipped   int `json:"skipped,omitempty"`
	// Hedged counts straggler requests duplicated; Retries re-attempts;
	// HedgeWins hedges whose duplicate answered first.
	Hedged    int `json:"hedged,omitempty"`
	Retries   int `json:"retries,omitempty"`
	HedgeWins int `json:"hedge_wins,omitempty"`
	// TraceID is the propagated cross-process trace id ("" when the query
	// was untraced or propagation is disabled).
	TraceID string `json:"trace_id,omitempty"`
	// PerWorker details every worker contacted (or breaker-skipped) this
	// query, in fleet order.
	PerWorker []WorkerCall `json:"per_worker,omitempty"`
	// CostTable is the fleet-wide Lemma 1 table: the per-worker tables of
	// every merged answer summed row-by-row (nil when untraced).
	CostTable []obs.CostRow `json:"-"`
}

// WorkerCall is one worker's outcome within a single distributed query.
type WorkerCall struct {
	// Worker is the worker base URL; WIDs how many wids it owned.
	Worker string `json:"worker"`
	WIDs   int    `json:"wids"`
	// Status is "ok", "failed", or "skipped" (breaker).
	Status string `json:"status"`
	// Attempts counts requests sent (hedges excluded); Retries re-attempts
	// after backoff; Hedges duplicated straggler requests; HedgeWon whether
	// a hedge's answer was the one used.
	Attempts int  `json:"attempts"`
	Retries  int  `json:"retries,omitempty"`
	Hedges   int  `json:"hedges,omitempty"`
	HedgeWon bool `json:"hedge_won,omitempty"`
	// BreakerSkip marks a worker excluded without any request by an open
	// circuit breaker.
	BreakerSkip bool `json:"breaker_skip,omitempty"`
	// ElapsedUS is the worker-reported evaluation wall time (0 on failure).
	ElapsedUS int64 `json:"elapsed_us"`
	// Incidents is how many incidents the worker's part of the answer has
	// (counted, not shipped, unless the query asked for incidents);
	// TraceSpans how many spans its returned subtree carried.
	Incidents  int `json:"incidents"`
	TraceSpans int `json:"trace_spans,omitempty"`
	// Error is the terminal failure, when Status != "ok".
	Error string `json:"error,omitempty"`
}

// ExecOptions parameterizes one distributed execution.
type ExecOptions struct {
	// WIDs is the full ascending wid list of the log (the coordinator's
	// local backend supplies it; placement partitions it over the fleet).
	WIDs []uint64
	// Strategy optionally names the join implementation for the workers.
	Strategy string
	// Budget is the whole query's budget; it is sliced per active worker.
	Budget resilience.Budget
}

// Execute evaluates the plan across the worker fleet and returns incL(p):
// Answer in the eval.ShapeIncidents shape.
func (c *Coordinator) Execute(ctx context.Context, logName string, plan pattern.Node, opts ExecOptions, qs *eval.QueryStats) (*incident.Set, *shard.Completeness, Fanout, error) {
	a, comp, fan, err := c.Answer(ctx, logName, plan, eval.ShapeIncidents, opts, qs)
	return a.Set, comp, fan, err
}

// Answer evaluates the plan across the worker fleet on the shared
// partition driver (shard.Scatter): part i of shard.Partition(opts.WIDs,
// fleet size) goes to worker i, attempted through call — one request plus an
// optional hedge — under the driver's breaker admission and retry loop. The
// request carries the shape as its mode, every worker answers in it, and the
// surviving answers add up and concatenate through shard.Merge — equal to a
// single-node evaluation when every worker answers.
//
// The error and Completeness contract is shard.Merge's, with each excluded
// worker's part named by its exact wid interval — except that a worker's
// budget trip (a 422 reply) fails the whole query with the worker's
// *resilience.BudgetError, in strict and partial mode alike.
//
// Everything done for a worker is recorded under its "worker <url>" span:
// a queue-wait span (launch + admission + marshal before the first transport
// write), sibling transport spans per request with attempt/hedge
// annotations, and the driver's backoff and breaker-skip spans. The winning
// response's own span subtree is grafted under the transport span that
// carried it.
func (c *Coordinator) Answer(ctx context.Context, logName string, plan pattern.Node, shape eval.Shape, opts ExecOptions, qs *eval.QueryStats) (eval.Answer, *shard.Completeness, Fanout, error) {
	c.fanouts.Add(1)
	// Distributed tracing: mint (or reuse) the query's trace id and ask
	// workers to return their span trees and cost tables. The id travels on
	// a traceparent header per request; the request body only carries the
	// enable flag and the subtree cap.
	tr := obs.FromContext(ctx)
	traceID := ""
	if tr != nil && !c.cfg.DisableTracePropagation {
		traceID = tr.ID()
	}
	scatter := tr.StartSpan("scatter")
	if traceID != "" {
		scatter.SetAttr("trace_id", traceID)
	}

	// Part i goes to worker i. A log with fewer wids than workers leaves the
	// tail of the fleet idle: not contacted, not counted as shards.
	shards := shard.Partition(opts.WIDs, len(c.workers))
	parts := make([]shard.Part, len(shards))
	queueWaits := make([]*obs.Span, len(shards))
	for i, sh := range shards {
		w := c.workers[i]
		wsp := scatter.StartChild("worker " + w.name)
		wsp.SetAttr("wids", len(sh.WIDs))
		parts[i] = shard.Part{Shard: sh, Worker: w.name, Breaker: w.breaker, Span: wsp}
		queueWaits[i] = wsp.StartChild("queue-wait")
	}
	scatter.SetAttr("workers", len(parts))

	req := WorkerQueryRequest{
		Log:      logName,
		Plan:     plan.String(),
		Mode:     shape.String(),
		Strategy: opts.Strategy,
		Budget:   ToBudgetDoc(opts.Budget.Slice(len(parts))),
	}
	if traceID != "" {
		req.Trace = true
		req.MaxTraceSpans = c.cfg.MaxTraceSpans
	}
	// Each part's goroutine writes only its own slot of calls and tables.
	calls := make([]WorkerCall, len(parts))
	tables := make([][]obs.CostRow, len(parts))
	attempt := func(ctx context.Context, i, n int) (shard.PartAnswer, error) {
		wreq := req
		wreq.Self = parts[i].Worker
		wreq.WIDMin, wreq.WIDMax = &parts[i].MinWID, &parts[i].MaxWID
		body, err := json.Marshal(wreq)
		queueWaits[i].End() // idempotent; the first attempt ends the queue wait
		if err != nil {
			return shard.PartAnswer{}, nonRetryable(fmt.Errorf("encode worker request: %w", err))
		}
		resp, count, err := c.attempt(ctx, parts[i], shape, n, traceID, body, &calls[i])
		if err != nil {
			return shard.PartAnswer{}, err
		}
		tables[i] = resp.CostTable
		return shard.PartAnswer{Count: count, WIDs: resp.WIDs, Incidents: resp.Incidents, Instances: resp.Instances}, nil
	}
	results := c.scatter.Gather(ctx, parts, attempt)
	scatter.End()

	msp := tr.StartSpan("merge")
	defer msp.End()
	ans, comp, err := shard.Merge(ctx, parts, results, shape, qs)
	// A budget trip on one worker is a verdict on the query, not a lost part:
	// the query fails with it, so a trip is never a shorter answer.
	for _, r := range results {
		var be *resilience.BudgetError
		if errors.As(r.Err, &be) {
			ans, err = eval.Answer{}, be
			break
		}
	}
	c.workerRetries.Add(uint64(comp.Retries))
	c.workersSkipped.Add(uint64(comp.Skipped))
	fan := Fanout{
		Workers:   len(parts),
		Attempted: comp.Attempted,
		Succeeded: comp.Succeeded,
		Failed:    comp.Failed,
		Skipped:   comp.Skipped,
		Retries:   comp.Retries,
		PerWorker: calls,
		TraceID:   traceID,
	}
	incidents := 0
	for i, r := range results {
		call := &calls[i]
		call.Worker, call.WIDs = parts[i].Worker, len(parts[i].WIDs)
		call.Attempts, call.Retries, call.BreakerSkip = r.Attempts, r.Retries, r.Skipped
		call.Incidents = r.Count
		incidents += call.Incidents
		fan.Hedged += call.Hedges
		if call.HedgeWon {
			fan.HedgeWins++
		}
		call.Status = r.Status()
		if r.Err != nil {
			call.Error = r.Err.Error()
		}
	}
	// Only merged answers feed the fleet table (a part's slot is filled on
	// success alone): a failed worker's partial measurements would skew the
	// measured-vs-predicted comparison.
	fan.CostTable = obs.AggregateCostTables(tables...)
	msp.SetAttr("workers_merged", comp.Succeeded)
	msp.SetAttr("incidents", incidents)
	return ans, comp, fan, err
}

// attempt is the coordinator's shard.Transport: one call against the part's
// worker, the shape, placement and trace-id cross-checks on its reply, and
// the graft of the reply's span subtree. Hedge and reply detail lands on
// call. count is the number of incidents the reply stands for.
func (c *Coordinator) attempt(ctx context.Context, part shard.Part, shape eval.Shape, n int, traceID string, body []byte, call *WorkerCall) (resp *WorkerQueryResponse, count int, err error) {
	resp, winner, err := c.call(ctx, part.Span, n, traceID, c.workers[part.ID], body, call)
	if err != nil {
		return nil, 0, err
	}
	if count, err = checkReply(part, shape, resp); err != nil {
		// Deterministic — the same request gets the same reply — so never
		// retried.
		err = nonRetryable(err)
		winner.SetAttr("error", err.Error())
		return nil, 0, err
	}
	winner.SetAttr("incidents", count)
	if traceID != "" && resp.TraceID != "" && resp.TraceID != traceID {
		// Same spirit as the WIDsOwned echo: the worker answered under
		// a different trace context than we sent. Annotate, keep the
		// answer (trace skew is an observability fault, not a data one).
		winner.SetAttr("trace_id_mismatch", resp.TraceID)
	}
	if resp.Spans != nil {
		call.TraceSpans = obs.CountSpans(resp.Spans)
		obs.Graft(winner, resp.Spans, winner.StartUS)
	}
	call.ElapsedUS = resp.ElapsedUS
	return resp, count, nil
}

// checkReply cross-checks a reply against the part and the shape it
// answers, and returns the number of incidents it reports. The member count catches a worker whose copy of the log differs
// from the coordinator's inside the interval: merging its answer would
// silently mis-cover the log. A summary shape must come with its count — a
// worker from before the request's mode field ignores it and sends
// incidents, which this coordinator would have to decode and reduce for
// every part of every query; its part is lost instead, so upgrade workers
// first. The two ends of the answer list (incidents are in canonical order,
// the decoder saw to that; wids must be ascending) catch answers from
// outside the interval, which shard.Merge's concatenation would otherwise
// put out of order.
func checkReply(part shard.Part, shape eval.Shape, resp *WorkerQueryResponse) (count int, err error) {
	if resp.WIDsOwned != len(part.WIDs) {
		return 0, fmt.Errorf("placement mismatch: worker holds %d wids in %d–%d, coordinator %d (stale copy of the log)",
			resp.WIDsOwned, part.MinWID, part.MaxWID, len(part.WIDs))
	}
	lo, hi := part.MinWID, part.MaxWID // an empty answer lies inside any interval
	if shape == eval.ShapeIncidents {
		count = len(resp.Incidents)
		if count > 0 {
			lo, hi = resp.Incidents[0].WID(), resp.Incidents[count-1].WID()
		}
	} else {
		if resp.Count == nil {
			return 0, fmt.Errorf("mode mismatch: the reply to a %q request has no count (a worker from before the mode field?)", shape)
		}
		count = *resp.Count
		for i, wid := range resp.WIDs {
			if i > 0 && resp.WIDs[i-1] >= wid {
				return 0, fmt.Errorf("%w: wids %d, %d not ascending", ErrMalformedIncidents, resp.WIDs[i-1], wid)
			}
		}
		if n := len(resp.WIDs); n > 0 {
			lo, hi = resp.WIDs[0], resp.WIDs[n-1]
		}
		if shape == eval.ShapeInstances && (count < len(resp.WIDs) || (count > 0) != (len(resp.WIDs) > 0)) {
			return 0, fmt.Errorf("%w: %d incidents over %d wids", ErrMalformedIncidents, count, len(resp.WIDs))
		}
	}
	if lo < part.MinWID || hi > part.MaxWID {
		return 0, fmt.Errorf("%w: wids %d–%d outside the part's interval %d–%d",
			ErrMalformedIncidents, lo, hi, part.MinWID, part.MaxWID)
	}
	return count, nil
}

// call performs one attempt against a worker: the primary request, plus —
// when HedgeAfter is set and the primary has not answered in time — one
// duplicate, with whichever lands first winning. The per-attempt timeout
// covers primary and hedge together. Primary and hedge each get their own
// transport span under wsp (siblings, annotated attempt/hedge); the span
// of the request whose result is used is returned so the caller can graft
// the worker's subtree under it, and hedging is noted on wc. All span
// writes happen before call returns — abandoned requests' spans are closed
// here, never from their still-running goroutines.
func (c *Coordinator) call(ctx context.Context, wsp *obs.Span, attempt int, traceID string, worker *workerState, body []byte, wc *WorkerCall) (resp *WorkerQueryResponse, winner *obs.Span, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.WorkerTimeout)
	defer cancel()

	type result struct {
		resp  *WorkerQueryResponse
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	var primarySpan, hedgeSpan *obs.Span
	launch := func(isHedge bool) *obs.Span {
		sp := wsp.StartChild("transport")
		sp.SetAttr("attempt", attempt)
		header := ""
		if traceID != "" {
			spanID := obs.NewSpanID()
			sp.SetAttr("span_id", spanID)
			header = obs.FormatTraceparent(traceID, spanID)
		}
		if isHedge {
			sp.SetAttr("hedge", true)
		}
		go func() {
			r, err := c.post(actx, worker, body, header)
			ch <- result{resp: r, err: err, hedge: isHedge}
		}()
		return sp
	}
	primarySpan = launch(false)
	ended := make(map[*obs.Span]bool, 2)
	// abandon closes the span of a request still in flight when we stop
	// waiting for it (the other request already won); its goroutine will
	// drain into the buffered channel without touching the span again.
	abandon := func() {
		for _, sp := range []*obs.Span{primarySpan, hedgeSpan} {
			if sp != nil && !ended[sp] {
				sp.SetAttr("abandoned", true)
				sp.End()
			}
		}
	}

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(c.cfg.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	outstanding := 1
	var firstErr error
	firstErrSpan := primarySpan
	for {
		select {
		case r := <-ch:
			outstanding--
			spanOf := primarySpan
			if r.hedge {
				spanOf = hedgeSpan
			}
			if r.err != nil {
				spanOf.SetAttr("error", r.err.Error())
			}
			spanOf.End()
			ended[spanOf] = true
			if r.err == nil {
				if r.hedge {
					wc.HedgeWon = true
					c.hedgeWins.Add(1)
				}
				abandon()
				return r.resp, spanOf, nil
			}
			if firstErr == nil {
				firstErr = r.err
				firstErrSpan = spanOf
			}
			if outstanding == 0 {
				return nil, firstErrSpan, firstErr
			}
			// The other request (hedge or primary) is still out; wait for it.
		case <-hedgeC:
			hedgeC = nil
			wc.Hedges++
			c.hedges.Add(1)
			outstanding++
			hedgeSpan = launch(true)
		}
	}
}

// post issues one HTTP request to a worker and decodes the reply. The
// traceparent value, when non-empty, propagates the distributed trace
// context. Request duration feeds the per-worker latency histogram either
// way.
func (c *Coordinator) post(ctx context.Context, worker *workerState, body []byte, traceparent string) (_ *WorkerQueryResponse, err error) {
	c.workerRequests.Add(1)
	start := time.Now()
	defer func() {
		worker.hist.Observe(time.Since(start))
		if err != nil {
			c.workerFailures.Add(1)
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(worker.name, "/")+"/v1/worker/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	httpResp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(httpResp.Body, 64<<10))
		var ed WorkerErrorDoc
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &ed) == nil && ed.Error != "" {
			msg = ed.Error
		}
		if httpResp.StatusCode == http.StatusUnprocessableEntity && ed.BudgetDimension != "" {
			// The worker's budget trip, rebuilt: deterministic, and the verdict
			// on the whole query (Answer).
			return nil, nonRetryable(&resilience.BudgetError{Dimension: ed.BudgetDimension, Limit: ed.BudgetLimit, Measured: ed.BudgetMeasured})
		}
		return nil, &WorkerHTTPError{Status: httpResp.StatusCode, Msg: msg}
	}
	var wr WorkerQueryResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&wr); err != nil {
		err = fmt.Errorf("decode worker response: %w", err)
		if errors.Is(err, ErrMalformedIncidents) {
			// A complete reply that is not an incident list: asking again
			// gets the same bytes.
			err = nonRetryable(err)
		}
		return nil, err
	}
	return &wr, nil
}

// WorkerHTTPError is a worker reply with a non-200 status.
type WorkerHTTPError struct {
	Status int
	Msg    string
}

// Error implements error.
func (e *WorkerHTTPError) Error() string {
	return fmt.Sprintf("worker returned %d: %s", e.Status, e.Msg)
}

// nonRetryableError marks a deterministic failure the retry loop must not
// re-attempt.
type nonRetryableError struct{ err error }

func (e *nonRetryableError) Error() string { return e.err.Error() }
func (e *nonRetryableError) Unwrap() error { return e.err }

func nonRetryable(err error) error { return &nonRetryableError{err: err} }

// retryableErr classifies a worker attempt failure. Transport-level errors
// (refused, reset, attempt timeout) and 5xx/429 replies are transient and
// worth a backed-off retry; 4xx replies and placement mismatches are
// deterministic — the same request would fail the same way.
func retryableErr(err error) bool {
	var nr *nonRetryableError
	if errors.As(err, &nr) {
		return false
	}
	var he *WorkerHTTPError
	if errors.As(err, &he) {
		return he.Status >= 500 || he.Status == http.StatusTooManyRequests
	}
	return true
}

// WorkerHealth is one worker's live status for /readyz and metrics.
type WorkerHealth struct {
	// Worker is the worker's base URL.
	Worker string `json:"worker"`
	// Healthy is the latest probe verdict (true before any probe has run —
	// optimistic, so a coordinator without probing does not report a
	// healthy fleet as lost).
	Healthy bool `json:"healthy"`
	// Breaker is the worker's circuit-breaker state: closed, open, half-open.
	Breaker string `json:"breaker"`
	// Error is the latest probe failure, when unhealthy.
	Error string `json:"error,omitempty"`
}

// Health snapshots every worker's probe verdict and breaker state.
func (c *Coordinator) Health() []WorkerHealth {
	out := make([]WorkerHealth, len(c.workers))
	for i, w := range c.workers {
		w.mu.Lock()
		out[i] = WorkerHealth{
			Worker:  w.name,
			Healthy: w.healthy,
			Breaker: w.breaker.State().String(),
			Error:   w.probeErr,
		}
		w.mu.Unlock()
	}
	return out
}

// Lost lists workers currently considered lost: probe-unhealthy, or with a
// not-closed circuit breaker. Feeds degraded readiness.
func (c *Coordinator) Lost() []string {
	var lost []string
	for _, w := range c.workers {
		w.mu.Lock()
		unhealthy := !w.healthy // true until a probe says otherwise
		w.mu.Unlock()
		if unhealthy || w.breaker.State() != shard.BreakerClosed {
			lost = append(lost, w.name)
		}
	}
	return lost
}

// OpenBreakers counts workers whose breaker is not closed.
func (c *Coordinator) OpenBreakers() int {
	open := 0
	for _, w := range c.workers {
		if w.breaker.State() != shard.BreakerClosed {
			open++
		}
	}
	return open
}

// ProbeOnce health-checks every worker (GET /healthz, bounded by the worker
// timeout) and records the verdicts. It returns the healthy count. Exposed
// separately from StartProbing so tests and callers can probe
// deterministically.
func (c *Coordinator) ProbeOnce(ctx context.Context) int {
	var wg sync.WaitGroup
	healthy := atomic.Int32{}
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			err := c.probe(ctx, w.name)
			w.mu.Lock()
			w.healthy = err == nil
			if err != nil {
				w.probeErr = err.Error()
			} else {
				w.probeErr = ""
				healthy.Add(1)
			}
			w.mu.Unlock()
		}(w)
	}
	wg.Wait()
	return int(healthy.Load())
}

// probe is one GET /healthz round trip.
func (c *Coordinator) probe(ctx context.Context, worker string) error {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.WorkerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet,
		strings.TrimSuffix(worker, "/")+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	return nil
}

// StartProbing launches the background probe loop at the given interval
// (<= 0 means DefaultProbeInterval) until ctx is cancelled.
func (c *Coordinator) StartProbing(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				c.ProbeOnce(ctx)
			}
		}
	}()
}
