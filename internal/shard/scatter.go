package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/obs"
	"wlq/internal/resilience"
)

// RetryPolicy is the retry/breaker policy of a scattered query
// (cluster.Config embeds it): how often a part is attempted, how long to
// wait in between, and when its circuit breaker gives up on it.
type RetryPolicy struct {
	// MaxAttempts caps attempts per part per query, the first try included
	// (0 = cluster.DefaultMaxAttempts).
	MaxAttempts int
	// Backoff schedules the delay between a part's attempts (zero value =
	// 10ms base, 2x growth, 1s cap, 20% jitter).
	Backoff Backoff
	// BreakerThreshold opens a part's circuit breaker after this many
	// consecutive failed attempts (0 = DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Sleep waits between attempts (nil = time.Sleep). Tests inject a
	// recording no-op so backoff is asserted, not waited for.
	Sleep func(time.Duration)
	// Rand draws the jitter uniform in [0,1) (nil = math/rand.Float64).
	Rand func() float64
}

// WithDefaults resolves zero fields; defaultAttempts is the attempt cap for
// a zero MaxAttempts (cluster.DefaultMaxAttempts). The breaker fields keep
// their zeros — NewBreaker resolves those.
func (p RetryPolicy) WithDefaults(defaultAttempts int) RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultAttempts
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	return p
}

// Part is one partition of a scattered query: a wid set evaluated as a
// unit by one worker, with the circuit breaker that remembers its failures
// across queries.
type Part struct {
	// Shard is the wid set; its ID is reported as ShardOutcome.Shard.
	Shard
	// Worker names the worker owning the part.
	Worker string
	// Breaker admits or refuses the part's attempts.
	Breaker *Breaker
	// Span, when non-nil, is the part's span in the query trace: the driver
	// records breaker-skip and backoff spans under it, stamps the part's
	// final status on it and ends it. The transport records its own attempt
	// spans.
	Span *obs.Span
}

// Transport makes one evaluation attempt (1-based) on parts[part] — an HTTP
// round trip to the part's worker — and returns the restriction of incL(p)
// to the part's wids in the shape the query asked for. It is called from the
// part's own goroutine, never concurrently for the same part.
type Transport func(ctx context.Context, part, attempt int) (PartAnswer, error)

// PartAnswer is one part's answer.
type PartAnswer struct {
	// Count is the number of incidents in the part, in every shape.
	Count int
	// WIDs, under eval.ShapeInstances, are the part's instances that have
	// one, ascending; Incidents, under eval.ShapeIncidents, the incidents in
	// canonical order. Merge relies on both orders.
	WIDs      []uint64
	Incidents []incident.Incident
	// Instances is the number of workflow instances evaluated.
	Instances int
}

// PartResult is one part's terminal outcome within a query.
type PartResult struct {
	// PartAnswer is the transport's answer (zero unless Err is nil).
	PartAnswer
	// Attempts counts transport calls (0 when the breaker skipped the part);
	// Retries those after the first.
	Attempts int
	Retries  int
	// Skipped is true when the open breaker refused the part outright.
	Skipped bool
	// Err is the final failure.
	Err error
}

// Status names the outcome: "ok", "failed", or "skipped" (breaker).
func (r PartResult) Status() string {
	switch {
	case r.Skipped:
		return "skipped"
	case r.Err != nil:
		return "failed"
	default:
		return "ok"
	}
}

// Scatter is the partition driver the cluster coordinator runs on: it
// launches every part concurrently, drives each through breaker admission
// and the retry/backoff loop (Gather), and folds the outcomes into the
// merged answer and its Completeness (Merge).
type Scatter struct {
	// RetryPolicy must be resolved (WithDefaults).
	RetryPolicy
	// Retryable classifies an attempt error: true earns a backed-off retry.
	Retryable func(error) bool
}

// Gather runs every part to its terminal outcome and returns the outcomes
// in part order.
func (s *Scatter) Gather(ctx context.Context, parts []Part, attempt Transport) []PartResult {
	results := make([]PartResult, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.runPart(ctx, parts[i], i, attempt)
		}(i)
	}
	wg.Wait()
	return results
}

// runPart drives one part through breaker admission and the retry loop.
func (s *Scatter) runPart(ctx context.Context, p Part, i int, attempt Transport) (res PartResult) {
	defer func() {
		p.Span.SetAttr("status", res.Status())
		if res.Err != nil && !res.Skipped {
			p.Span.SetAttr("error", res.Err.Error())
		}
		p.Span.End()
	}()
	if !p.Breaker.Allow() {
		sk := p.Span.StartChild("breaker-skip")
		sk.SetAttr("breaker", "open")
		sk.End()
		return PartResult{Skipped: true, Err: fmt.Errorf("circuit breaker open for worker %s", p.Worker)}
	}
	for n := 1; ; n++ {
		res.Attempts = n
		res.PartAnswer, res.Err = attempt(ctx, i, n)
		// A budget trip is an answer too: the part is healthy, the query is
		// over budget, and no retry would change that.
		var be *resilience.BudgetError
		if res.Err == nil || errors.As(res.Err, &be) {
			p.Breaker.Success()
			return res
		}
		// The parent context dying is not a part's fault: don't trip the
		// breaker for it, and don't retry into a cancelled query.
		if ctx.Err() != nil {
			return res
		}
		p.Breaker.Failure()
		if !s.Retryable(res.Err) || n >= s.MaxAttempts || !p.Breaker.Allow() {
			return res
		}
		res.Retries++
		delay := s.Backoff.Delay(n, s.Rand())
		bsp := p.Span.StartChild("backoff")
		bsp.SetAttr("delay_ms", delay.Milliseconds())
		bsp.SetAttr("next_attempt", n+1)
		s.Sleep(delay)
		bsp.End()
	}
}

// ShardOutcome describes one wid range excluded from a query's result: which
// wids are missing, how hard the service tried, and why it gave up.
type ShardOutcome struct {
	// Shard is the failure domain's id: the part's index on a cluster, the
	// position of the range's first instance in the log on a single node.
	Shard int `json:"shard"`
	// WIDMin/WIDMax are the excluded closed wid interval: every instance of
	// the log inside it is missing from the result, none outside it.
	WIDMin uint64 `json:"wid_min"`
	WIDMax uint64 `json:"wid_max"`
	// WIDs is the number of workflow instances excluded.
	WIDs int `json:"wids"`
	// Attempts is how many evaluation attempts were made (0 when the
	// circuit breaker skipped the part outright).
	Attempts int `json:"attempts"`
	// Cause is the final error in human-readable form.
	Cause string `json:"cause"`
	// Skipped is true when an open circuit breaker excluded the part
	// without any attempt this query.
	Skipped bool `json:"skipped,omitempty"`
	// Worker names the worker that owned the part (empty on a single node).
	Worker string `json:"worker,omitempty"`
}

// Completeness is the partial-result contract: exactly which slices of the
// log an answer covers. A Complete answer is byte-identical to a fault-free
// single-node evaluation's; an incomplete one names every excluded wid
// range and its cause, so "no incidents in wids 40–60" is distinguishable
// from "wids 40–60 were never evaluated".
type Completeness struct {
	// Complete is true when every failure domain answered.
	Complete bool `json:"complete"`
	// Shards is the number of failure domains: the cluster's parts, or a
	// single node's instances.
	Shards int `json:"shards"`
	// Attempted counts domains on which at least one attempt ran.
	Attempted int `json:"shards_attempted"`
	// Succeeded counts domains whose incidents are in the answer.
	Succeeded int `json:"shards_succeeded"`
	// Failed counts domains excluded after exhausting their attempts.
	Failed int `json:"shards_failed"`
	// Skipped counts parts excluded by an open circuit breaker.
	Skipped int `json:"shards_skipped"`
	// Retries counts re-attempts across all parts.
	Retries int `json:"retries"`
	// ExcludedWIDs is the total number of workflow instances not covered
	// by the result.
	ExcludedWIDs int `json:"excluded_wids"`
	// Failures details every excluded wid range, ascending.
	Failures []ShardOutcome `json:"failures,omitempty"`
}

// Merge folds gathered outcomes into the completeness contract and the
// merged answer of the given shape: counts add up, and — parts being
// contiguous wid ranges in ascending order, each answered in order — wid
// lists and incident lists concatenate. stats, when non-nil, receives the
// instances and incidents of the merged answer.
//
// The returned error is non-nil only when the whole query is lost: the
// context was cancelled, or no part produced an answer. Otherwise callers
// choose whether an incomplete result is an answer (degraded mode) or an
// error (strict mode). With no faults the merged answer equals the
// unpartitioned evaluator's exactly.
func Merge(ctx context.Context, parts []Part, results []PartResult, shape eval.Shape, stats *eval.QueryStats) (eval.Answer, *Completeness, error) {
	comp := &Completeness{Shards: len(parts)}
	var (
		ans      eval.Answer
		runs     [][]incident.Incident
		firstErr error
	)
	for i, r := range results {
		p := parts[i]
		comp.Retries += r.Retries
		if r.Err == nil {
			comp.Attempted++
			comp.Succeeded++
			ans.Count += r.Count
			ans.WIDs = append(ans.WIDs, r.WIDs...)
			runs = append(runs, r.Incidents)
			if stats != nil {
				stats.Instances += r.Instances
				stats.Incidents += r.Count
			}
			continue
		}
		if r.Skipped {
			comp.Skipped++
		} else {
			comp.Attempted++
			comp.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("worker %s: %w", p.Worker, r.Err)
			}
		}
		comp.ExcludedWIDs += len(p.WIDs)
		comp.Failures = append(comp.Failures, ShardOutcome{
			Shard:    p.ID,
			WIDMin:   p.MinWID,
			WIDMax:   p.MaxWID,
			WIDs:     len(p.WIDs),
			Attempts: r.Attempts,
			Cause:    r.Err.Error(),
			Skipped:  r.Skipped,
			Worker:   p.Worker,
		})
	}
	comp.Complete = comp.Succeeded == comp.Shards
	if stats != nil {
		// An empty log has no parts and is answered on the caller's goroutine.
		stats.Workers = max(len(parts), 1)
	}

	if err := ctx.Err(); err != nil {
		return eval.Answer{}, comp, err
	}
	if comp.Succeeded == 0 && len(parts) > 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("all %d workers skipped by open circuit breakers", comp.Shards)
		}
		return eval.Answer{}, comp, firstErr
	}
	if shape == eval.ShapeIncidents {
		// Every part's answer is canonical on its own, so the union is a
		// concatenation, not a sort.
		ans.Set = incident.MergeSorted(runs...)
	}
	return ans, comp, nil
}
