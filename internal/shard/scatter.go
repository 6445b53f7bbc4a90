package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/obs"
)

// RetryPolicy is the retry/breaker policy of a scattered query, shared by
// the in-process executor (Config) and the cluster coordinator
// (cluster.Config): how often a part is attempted, how long to wait in
// between, and when its circuit breaker gives up on it.
type RetryPolicy struct {
	// MaxAttempts caps attempts per part per query, the first try included
	// (0 = the tier's default: DefaultMaxAttempts here,
	// cluster.DefaultMaxAttempts on the network tier).
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

// WithDefaults resolves zero fields; defaultAttempts is the tier's attempt
// cap for a zero MaxAttempts. The breaker fields keep their zeros —
// NewBreaker resolves those.
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
// unit, with the circuit breaker that remembers its failures across
// queries.
type Part struct {
	// Shard is the wid set; its ID is reported as ShardOutcome.Shard.
	Shard
	// Worker names the remote node owning the part; empty for an in-process
	// shard.
	Worker string
	// Breaker admits or refuses the part's attempts.
	Breaker *Breaker
	// Span, when non-nil, is the part's span in the query trace: the driver
	// records breaker-skip and backoff spans under it, stamps the part's
	// final status on it and ends it. The transport records its own attempt
	// spans.
	Span *obs.Span
}

// name renders the part for error causes.
func (p Part) name() string {
	if p.Worker != "" {
		return "worker " + p.Worker
	}
	return fmt.Sprintf("shard %d (%s)", p.ID, p.RangeString())
}

// Transport makes one evaluation attempt (1-based) on parts[part] — an
// in-process AnswerCtx call for the executor, an HTTP round trip for the
// cluster coordinator — and returns the restriction of incL(p) to the
// part's wids in the shape the query asked for. It is called from the part's
// own goroutine, never concurrently for the same part.
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

// Scatter is the partition driver both fan-out tiers run on: it launches
// every part concurrently, drives each through breaker admission and the
// retry/backoff loop (Gather), and folds the outcomes into the merged
// answer and its Completeness (Merge). The tiers differ only in
// their Transport and in which errors they call retryable.
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
		return PartResult{Skipped: true, Err: fmt.Errorf("circuit breaker open for %s", p.name())}
	}
	for n := 1; ; n++ {
		res.Attempts = n
		res.PartAnswer, res.Err = attempt(ctx, i, n)
		if res.Err == nil {
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

// Merge folds gathered outcomes into the completeness contract and the
// merged answer of the given shape: counts add up, and — parts being
// contiguous wid ranges in ascending order, each answered in order — wid
// lists and incident lists concatenate. stats, when non-nil, receives the
// fan-out accounting.
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
				firstErr = fmt.Errorf("%s: %w", p.name(), r.Err)
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
		stats.Shards = len(parts)
		stats.ShardsFailed = comp.Failed + comp.Skipped
		stats.ShardRetries = comp.Retries
	}

	if err := ctx.Err(); err != nil {
		return eval.Answer{}, comp, err
	}
	if comp.Succeeded == 0 && len(parts) > 0 {
		if firstErr == nil {
			noun := "shards"
			if parts[0].Worker != "" {
				noun = "workers"
			}
			firstErr = fmt.Errorf("all %d %s skipped by open circuit breakers", comp.Shards, noun)
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
