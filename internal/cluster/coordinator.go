// Package cluster takes the per-instance failure domains of a single node
// to the network: a coordinator splits a log's workflow instances into one
// contiguous wid range per worker node (Partition), fans each query out over
// HTTP, and concatenates the per-worker answers in range order — so a
// distributed evaluation is digest-identical to a single-node one, and a
// lost worker degrades the answer (a 206 with a Completeness document naming
// the missing wid interval) instead of failing it.
//
// Definition 4 makes incident semantics strictly per-instance, so the
// distribution is exact: no cross-worker joins exist, and each worker
// evaluates the wids of its interval against its local copy of the log
// independently. What the network tier adds over one node is real failure
// independence — a worker process can die, hang, or partition without
// taking the coordinator's process down — paid for with the
// network-robustness machinery:
//
//   - per-worker attempt timeouts and capped-exponential retry with jitter;
//   - per-worker circuit breakers (Breaker, on the resilience clock seam) so
//     a dead node is skipped, not re-dialed by every query;
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
	"math/rand"
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
	// MaxAttempts caps a worker's request attempts per query, the first try
	// included (0 = DefaultMaxAttempts).
	MaxAttempts int
	// BreakerThreshold opens a worker's circuit breaker after this many
	// consecutive failed attempts (0 = DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Transport is the HTTP transport for worker requests (nil =
	// http.DefaultTransport). Chaos suites inject faultinject.FlakyRoundTripper
	// here to fail, slow or blackhole exact requests without killing
	// processes.
	Transport http.RoundTripper
	// Sleep waits out the backoff between attempts (nil = time.Sleep). Tests
	// inject a recording no-op so backoff is asserted, not waited for.
	Sleep func(time.Duration)
}

// withDefaults resolves zero fields; NewBreaker resolves the breaker's.
func (c Config) withDefaults() Config {
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = DefaultWorkerTimeout
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// workerState is one worker's long-lived coordinator-side state: the
// circuit breaker accumulating failure history across queries, the
// request-duration histogram, and the latest health-probe verdict.
type workerState struct {
	name    string
	breaker *Breaker
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
	// WorkerRequests counts HTTP requests issued to workers (retries
	// included); WorkerFailures those that errored.
	WorkerRequests uint64 `json:"worker_requests" prom:"wlq_cluster_worker_requests_total" help:"HTTP requests issued to workers (retries included)."`
	WorkerFailures uint64 `json:"worker_failures" prom:"wlq_cluster_worker_failures_total" help:"Worker requests that failed (transport error or non-200)."`
	// WorkerRetries counts re-attempts after backoff.
	WorkerRetries uint64 `json:"worker_retries" prom:"wlq_cluster_worker_retries_total" help:"Worker request re-attempts (after backoff)."`
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

	fanouts        atomic.Uint64
	workerRequests atomic.Uint64
	workerFailures atomic.Uint64
	workerRetries  atomic.Uint64
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
			breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
			hist:    obs.NewHistogram(DurationBucketsUS),
			healthy: true, // optimistic until a probe or request says otherwise
		}
	}
	return &Coordinator{
		cfg: cfg,
		// The per-attempt deadline rides the request context, not the
		// client, so attempts and probes can choose their own.
		client:  &http.Client{Transport: cfg.Transport},
		workers: workers,
	}, nil
}

// Stats snapshots the fan-out counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Fanouts:        c.fanouts.Load(),
		WorkerRequests: c.workerRequests.Load(),
		WorkerFailures: c.workerFailures.Load(),
		WorkerRetries:  c.workerRetries.Load(),
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
	// Retries counts re-attempts.
	Retries int `json:"retries,omitempty"`
	// TraceID is the propagated cross-process trace id ("" when the query
	// was untraced).
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
	// Attempts counts requests sent; Retries re-attempts after backoff.
	Attempts int `json:"attempts"`
	Retries  int `json:"retries,omitempty"`
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

// Result is a distributed answer in the shape it was asked for: the count in
// every shape, the wids having an incident in eval.ShapeInstances, and in
// eval.ShapeIncidents the incidents themselves in wire form — the parts'
// arrays, each checked where it arrived, concatenated in part order, which is
// canonical order: the bytes AppendIncidents writes for the answer.
type Result struct {
	Count     int
	WIDs      []uint64
	Incidents []byte
}

// Execute evaluates the plan across the worker fleet and returns incL(p):
// Answer in the eval.ShapeIncidents shape, decoded.
func (c *Coordinator) Execute(ctx context.Context, logName string, plan pattern.Node, opts ExecOptions, qs *eval.QueryStats) (*incident.Set, *Completeness, Fanout, error) {
	res, comp, fan, err := c.Answer(ctx, logName, plan, eval.ShapeIncidents, opts, qs)
	if err != nil {
		return nil, comp, fan, err
	}
	incs, err := DecodeIncidents(res.Incidents)
	if err != nil {
		return nil, comp, fan, err
	}
	return incident.MergeSorted(incs), comp, fan, nil
}

// partResult is one part's terminal outcome within a query.
type partResult struct {
	// resp is the accepted reply (nil unless err is nil); count the number
	// of incidents it stands for.
	resp  *WorkerQueryResponse
	count int
	// attempts counts requests sent (0 when the breaker skipped the part);
	// retries those after the first.
	attempts, retries int
	// skipped is true when the open breaker refused the part outright.
	skipped bool
	// err is the final failure.
	err error
}

// status names the outcome: "ok", "failed", or "skipped" (breaker).
func (r partResult) status() string {
	switch {
	case r.skipped:
		return "skipped"
	case r.err != nil:
		return "failed"
	default:
		return "ok"
	}
}

// Answer evaluates the plan across the worker fleet: part i of
// Partition(opts.WIDs, fleet size) goes to worker i, each part on its own
// goroutine through breaker admission and the retry loop (runPart). The
// request carries the shape as its mode, every worker answers in it, and
// the surviving answers add up and concatenate — parts being contiguous wid
// ranges in ascending order, each answered in order — equal to a
// single-node evaluation when every worker answers. An incidents answer is
// never decoded: each part's array is checked where it lies in the reply and
// copied once into the concatenation. qs, when non-nil, receives the
// instances and incidents of the merged answer.
//
// The returned error is non-nil only when the whole query is lost: the
// context was cancelled, no part produced an answer, or a worker tripped
// its budget slice (a 422 reply), which fails the query with the worker's
// *resilience.BudgetError in strict and partial mode alike. Otherwise the
// Completeness names each excluded worker's part by its exact wid interval,
// and callers choose whether an incomplete result is an answer (degraded
// mode) or an error (strict mode).
//
// Everything done for a worker is recorded under its "worker <url>" span:
// a queue-wait span (launch + admission + marshal before the first transport
// write), one transport span per attempt, and the backoff and breaker-skip
// spans. The accepted reply's own span subtree is grafted under the
// transport span that carried it.
func (c *Coordinator) Answer(ctx context.Context, logName string, plan pattern.Node, shape eval.Shape, opts ExecOptions, qs *eval.QueryStats) (Result, *Completeness, Fanout, error) {
	c.fanouts.Add(1)
	// Distributed tracing: a traced query's id travels on a traceparent
	// header per request, and workers return their span trees and cost
	// tables; the request body only carries the enable flag and the cap.
	tr := obs.FromContext(ctx)
	traceID := ""
	if tr != nil {
		traceID = tr.ID()
	}
	scatter := tr.StartSpan("scatter")
	if traceID != "" {
		scatter.SetAttr("trace_id", traceID)
	}

	// Part i goes to worker i. A log with fewer wids than workers leaves the
	// tail of the fleet idle: not contacted, not counted as shards.
	parts := Partition(opts.WIDs, len(c.workers))
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
		req.MaxTraceSpans = DefaultMaxTraceSpans
	}
	// Each part's goroutine writes only its own slot.
	results := make([]partResult, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wsp := scatter.StartChild("worker " + c.workers[i].name)
		wsp.SetAttr("wids", len(p.WIDs))
		queueWait := wsp.StartChild("queue-wait")
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.runPart(ctx, parts[i], shape, req, traceID, wsp, queueWait)
		}(i)
	}
	wg.Wait()
	scatter.End()

	msp := tr.StartSpan("merge")
	defer msp.End()
	comp := &Completeness{Shards: len(parts)}
	calls := make([]WorkerCall, len(parts))
	var (
		ans       Result
		lists     [][]byte
		tables    [][]obs.CostRow
		firstErr  error
		budgetErr *resilience.BudgetError
	)
	if shape == eval.ShapeInstances {
		n := 0
		for _, r := range results {
			if r.err == nil {
				n += len(r.resp.WIDs)
			}
		}
		ans.WIDs = make([]uint64, 0, n)
	}
	for i, r := range results {
		p, worker := parts[i], c.workers[i].name
		call := WorkerCall{Worker: worker, WIDs: len(p.WIDs), Status: r.status(),
			Attempts: r.attempts, Retries: r.retries, BreakerSkip: r.skipped, Incidents: r.count}
		comp.Retries += r.retries
		switch {
		case r.err == nil:
			comp.Attempted++
			comp.Succeeded++
			ans.Count += r.count
			switch shape {
			case eval.ShapeInstances:
				ans.WIDs = append(ans.WIDs, r.resp.WIDs...)
			case eval.ShapeIncidents:
				lists = append(lists, r.resp.Incidents)
			}
			// Only merged answers feed the fleet table: a failed worker's
			// partial measurements would skew the measured-vs-predicted
			// comparison.
			tables = append(tables, r.resp.CostTable)
			call.ElapsedUS, call.TraceSpans = r.resp.ElapsedUS, obs.CountSpans(r.resp.Spans)
			if qs != nil {
				qs.Instances += r.resp.Instances
				qs.Incidents += r.count
			}
		case r.skipped:
			comp.Skipped++
		default:
			comp.Attempted++
			comp.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("worker %s: %w", worker, r.err)
			}
			if budgetErr == nil {
				errors.As(r.err, &budgetErr)
			}
		}
		if r.err != nil {
			call.Error = r.err.Error()
			comp.ExcludedWIDs += len(p.WIDs)
			comp.Failures = append(comp.Failures, ShardOutcome{
				Shard:    p.ID,
				WIDMin:   p.MinWID,
				WIDMax:   p.MaxWID,
				WIDs:     len(p.WIDs),
				Attempts: r.attempts,
				Cause:    call.Error,
				Skipped:  r.skipped,
				Worker:   worker,
			})
		}
		calls[i] = call
	}
	comp.Complete = comp.Succeeded == comp.Shards
	if qs != nil {
		// An empty log has no parts and is answered on the caller's goroutine.
		qs.Workers = max(len(parts), 1)
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
		TraceID:   traceID,
		PerWorker: calls,
		CostTable: obs.AggregateCostTables(tables...),
	}
	msp.SetAttr("workers_merged", comp.Succeeded)
	msp.SetAttr("incidents", ans.Count)

	switch {
	case budgetErr != nil:
		// A budget trip on one worker is a verdict on the query, not a lost
		// part: the query fails with it, so a trip is never a shorter answer.
		return Result{}, comp, fan, budgetErr
	case ctx.Err() != nil:
		return Result{}, comp, fan, ctx.Err()
	case comp.Succeeded == 0 && len(parts) > 0:
		if firstErr == nil {
			firstErr = fmt.Errorf("all %d workers skipped by open circuit breakers", comp.Shards)
		}
		return Result{}, comp, fan, firstErr
	}
	if shape == eval.ShapeIncidents {
		// Every part's answer is canonical on its own and lies inside its
		// part's interval (checkReply), so the union is a concatenation.
		ans.Incidents = joinLists(lists)
	}
	return ans, comp, fan, nil
}

// runPart drives one part to its terminal outcome: breaker admission, then
// attempts, with a backed-off retry after each retryable failure while
// attempts remain and the breaker still admits. It stamps the outcome on
// wsp, the part's span, and ends it.
func (c *Coordinator) runPart(ctx context.Context, p Part, shape eval.Shape, req WorkerQueryRequest, traceID string, wsp, queueWait *obs.Span) (r partResult) {
	w := c.workers[p.ID]
	defer func() {
		wsp.SetAttr("status", r.status())
		if r.err != nil && !r.skipped {
			wsp.SetAttr("error", r.err.Error())
		}
		wsp.End()
	}()
	if !w.breaker.Allow() {
		sk := wsp.StartChild("breaker-skip")
		sk.SetAttr("breaker", "open")
		sk.End()
		return partResult{skipped: true, err: fmt.Errorf("circuit breaker open for worker %s", w.name)}
	}
	req.Self = w.name
	req.WIDMin, req.WIDMax = &p.MinWID, &p.MaxWID
	body, err := json.Marshal(req)
	queueWait.End()
	if err != nil {
		return partResult{err: fmt.Errorf("encode worker request: %w", err)}
	}
	for n := 1; ; n++ {
		r.attempts = n
		r.resp, r.count, r.err = c.attempt(ctx, p, shape, n, traceID, body, wsp)
		// A budget trip is an answer too: the worker is healthy, the query is
		// over budget, and no retry would change that.
		var be *resilience.BudgetError
		if r.err == nil || errors.As(r.err, &be) {
			w.breaker.Success()
			return r
		}
		// The query's context dying is not the worker's fault: don't charge
		// the breaker for it, and don't retry into a cancelled query — but
		// hand a half-open probe back, or the breaker would refuse the worker
		// from then on.
		if ctx.Err() != nil {
			w.breaker.Abandon()
			return r
		}
		w.breaker.Failure()
		if !retryableErr(r.err) || n >= c.cfg.MaxAttempts || !w.breaker.Allow() {
			return r
		}
		r.retries++
		d := delay(n, rand.Float64())
		bsp := wsp.StartChild("backoff")
		bsp.SetAttr("delay_ms", d.Milliseconds())
		bsp.SetAttr("next_attempt", n+1)
		c.cfg.Sleep(d)
		bsp.End()
	}
}

// The backoff schedule between a part's attempts: capped exponential, 2x
// per attempt, with proportional jitter.
const (
	backoffBase   = 10 * time.Millisecond
	backoffMax    = time.Second
	backoffJitter = 0.2
)

// delay returns the backoff before retry attempt (1-based),
//
//	min(backoffBase·2^(attempt−1), backoffMax) · (1 + backoffJitter·(2u−1)),
//
// with u the jitter draw in [0,1). The cap applies to the raw exponential
// term, so the jittered delay stays within ±backoffJitter of backoffMax once
// the schedule saturates. Jitter matters under correlated failure: when
// every part of every in-flight query retries a recovering worker, uniform
// spread is the difference between a ramp and a thundering herd.
func delay(attempt int, u float64) time.Duration {
	raw := backoffBase
	for i := 1; i < attempt && raw < backoffMax; i++ {
		raw *= 2
	}
	return time.Duration(float64(min(raw, backoffMax)) * (1 + backoffJitter*(2*u-1)))
}

// attempt sends attempt n of the part's request to its worker under the
// per-attempt timeout, with one transport span under wsp, then runs the
// shape, placement and trace-id cross-checks on the reply and grafts the
// reply's span subtree under the transport span. count is the number of
// incidents the reply stands for.
func (c *Coordinator) attempt(ctx context.Context, p Part, shape eval.Shape, n int, traceID string, body []byte, wsp *obs.Span) (resp *WorkerQueryResponse, count int, err error) {
	sp := wsp.StartChild("transport")
	sp.SetAttr("attempt", n)
	header := ""
	if traceID != "" {
		spanID := obs.NewSpanID()
		sp.SetAttr("span_id", spanID)
		header = obs.FormatTraceparent(traceID, spanID)
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.WorkerTimeout)
	resp, sum, err := c.post(actx, c.workers[p.ID], shape, body, header)
	cancel()
	sp.End()
	if err == nil {
		if count, err = checkReply(p, shape, resp, sum); err != nil {
			// Deterministic — the same request gets the same reply — so never
			// retried.
			err = nonRetryable(err)
		}
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
		return nil, 0, err
	}
	sp.SetAttr("incidents", count)
	if traceID != "" {
		if resp.TraceID != "" && resp.TraceID != traceID {
			// Same spirit as the WIDsOwned echo: the worker answered under
			// a different trace context than we sent. Annotate, keep the
			// answer (trace skew is an observability fault, not a data one).
			sp.SetAttr("trace_id_mismatch", resp.TraceID)
		}
		obs.Graft(sp, resp.Spans, sp.StartUS)
	}
	return resp, count, nil
}

// checkReply cross-checks a reply against the part and the shape it
// answers, and returns the number of incidents it reports; sum is what
// reading its answer array learned. The member count catches a worker whose
// copy of the log differs from the coordinator's inside the interval: merging
// its answer would silently mis-cover the log. A summary shape must come with
// its count — a worker from before the request's mode field ignores it and
// sends incidents, which this coordinator would have to decode and reduce
// for every part of every query; its part is lost instead, so upgrade
// workers first. The two ends of the answer array (incidents in canonical
// order and wids ascending, the reader saw to that) catch answers from
// outside the interval, which the merge's concatenation would otherwise put
// out of order.
func checkReply(p Part, shape eval.Shape, resp *WorkerQueryResponse, sum listSummary) (count int, err error) {
	if resp.WIDsOwned != len(p.WIDs) {
		return 0, fmt.Errorf("placement mismatch: worker holds %d wids in %d–%d, coordinator %d (stale copy of the log)",
			resp.WIDsOwned, p.MinWID, p.MaxWID, len(p.WIDs))
	}
	if shape == eval.ShapeIncidents {
		count = sum.n
	} else {
		if resp.Count == nil {
			return 0, fmt.Errorf("mode mismatch: the reply to a %q request has no count (a worker from before the mode field?)", shape)
		}
		count = *resp.Count
		if count < 0 || shape == eval.ShapeInstances && (count < sum.n || (count > 0) != (sum.n > 0)) {
			return 0, fmt.Errorf("%w: %d incidents over %d wids", ErrMalformedIncidents, count, sum.n)
		}
	}
	// An empty answer lies inside any interval.
	if sum.n > 0 && (sum.first < p.MinWID || sum.last > p.MaxWID) {
		return 0, fmt.Errorf("%w: wids %d–%d outside the part's interval %d–%d",
			ErrMalformedIncidents, sum.first, sum.last, p.MinWID, p.MaxWID)
	}
	return count, nil
}

// post issues one HTTP request to a worker and reads the reply to a request
// of the given shape (readReply). The traceparent value, when non-empty,
// propagates the distributed trace context. Request duration — the reply read
// included — feeds the per-worker latency histogram either way.
func (c *Coordinator) post(ctx context.Context, worker *workerState, shape eval.Shape, body []byte, traceparent string) (_ *WorkerQueryResponse, _ listSummary, err error) {
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
		return nil, listSummary{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	httpResp, err := c.client.Do(req)
	if err != nil {
		return nil, listSummary{}, err
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
			return nil, listSummary{}, nonRetryable(&resilience.BudgetError{Dimension: ed.BudgetDimension, Limit: ed.BudgetLimit, Measured: ed.BudgetMeasured})
		}
		return nil, listSummary{}, &WorkerHTTPError{Status: httpResp.StatusCode, Msg: msg}
	}
	return readReply(httpResp.Body, httpResp.ContentLength, shape)
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
		if unhealthy || w.breaker.State() != BreakerClosed {
			lost = append(lost, w.name)
		}
	}
	return lost
}

// OpenBreakers counts workers whose breaker is not closed.
func (c *Coordinator) OpenBreakers() int {
	open := 0
	for _, w := range c.workers {
		if w.breaker.State() != BreakerClosed {
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
