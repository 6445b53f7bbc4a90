package shard

import (
	"context"
	"errors"
	"fmt"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/obs"
	"wlq/internal/resilience"
)

// DefaultMaxAttempts is the per-shard evaluation attempt cap per query
// (1 initial try + retries) when Config.MaxAttempts is zero.
const DefaultMaxAttempts = 3

// Config tunes a sharded executor. The zero value shards into GOMAXPROCS
// contiguous wid ranges with 3 attempts per shard, default backoff, and a
// 5-failure/30s circuit breaker per shard.
type Config struct {
	// Shards is the number of failure domains (0 = GOMAXPROCS; the actual
	// count is capped by the instance count).
	Shards int
	// RetryPolicy governs each shard's attempts, backoff and breaker.
	RetryPolicy
}

// ShardOutcome describes one shard excluded from a query's result: which
// wids are missing, how hard the executor tried, and why it gave up.
type ShardOutcome struct {
	// Shard is the shard id.
	Shard int `json:"shard"`
	// WIDMin/WIDMax are the excluded closed wid interval: every instance of
	// the log inside it is missing from the result, none outside it.
	WIDMin uint64 `json:"wid_min"`
	WIDMax uint64 `json:"wid_max"`
	// WIDs is the number of workflow instances excluded.
	WIDs int `json:"wids"`
	// Attempts is how many evaluation attempts were made (0 when the
	// circuit breaker skipped the shard outright).
	Attempts int `json:"attempts"`
	// Cause is the final error in human-readable form.
	Cause string `json:"cause"`
	// Skipped is true when an open circuit breaker excluded the shard
	// without any attempt this query.
	Skipped bool `json:"skipped,omitempty"`
	// Worker names the remote node that owned the shard, for distributed
	// execution (internal/cluster); empty for in-process shards.
	Worker string `json:"worker,omitempty"`
}

// Completeness is the partial-result contract: exactly which slices of the
// log a merged incident set covers. A Complete result is byte-identical to
// the unsharded evaluator's; an incomplete one names every excluded wid
// range and its cause, so "no incidents in wids 40–60" is distinguishable
// from "wids 40–60 were never evaluated".
type Completeness struct {
	// Complete is true when every shard succeeded.
	Complete bool `json:"complete"`
	// Shards is the number of failure domains the log partitioned into.
	Shards int `json:"shards"`
	// Attempted counts shards on which at least one attempt ran.
	Attempted int `json:"shards_attempted"`
	// Succeeded counts shards whose incidents are in the merged result.
	Succeeded int `json:"shards_succeeded"`
	// Failed counts shards excluded after exhausting their attempts.
	Failed int `json:"shards_failed"`
	// Skipped counts shards excluded by an open circuit breaker.
	Skipped int `json:"shards_skipped"`
	// Retries counts re-attempts across all shards.
	Retries int `json:"retries"`
	// ExcludedWIDs is the total number of workflow instances not covered
	// by the result.
	ExcludedWIDs int `json:"excluded_wids"`
	// Failures details every excluded shard, ascending by shard id.
	Failures []ShardOutcome `json:"failures,omitempty"`
}

// Executor runs queries shard by shard over one immutable log backend
// (row index or columnar store). It is
// safe for concurrent use and meant to be long-lived: the per-shard
// circuit breakers accumulate failure history across queries, which is
// what lets a persistently poisoned shard be skipped instead of re-probed
// by every request.
type Executor struct {
	src     eval.Source
	parts   []Part
	scatter Scatter
}

// NewExecutor partitions the backend's instances and creates the per-shard
// breakers. The backend must be immutable for the executor's lifetime (the
// same contract EvalParallel relies on).
func NewExecutor(src eval.Source, cfg Config) *Executor {
	policy := cfg.RetryPolicy.WithDefaults(DefaultMaxAttempts)
	shards := Partition(src.WIDs(), cfg.Shards)
	parts := make([]Part, len(shards))
	for i, sh := range shards {
		parts[i] = Part{Shard: sh, Breaker: NewBreaker(policy.BreakerThreshold, policy.BreakerCooldown)}
	}
	return &Executor{
		src:     src,
		parts:   parts,
		scatter: Scatter{RetryPolicy: policy, Retryable: Retryable},
	}
}

// Shards returns the number of failure domains the log partitioned into.
func (x *Executor) Shards() int { return len(x.parts) }

// OpenBreakers counts shards whose breaker is not closed — the live
// "poisoned shards" gauge exported at /metrics.
func (x *Executor) OpenBreakers() int {
	open := 0
	for _, p := range x.parts {
		if p.Breaker.State() != BreakerClosed {
			open++
		}
	}
	return open
}

// Retryable classifies an attempt error: panics (genuine bugs, or injected
// faults surfacing through the eval hook seam) are transient and worth a
// backed-off retry; budget errors are deterministic — the same work would
// trip the same slice again — and context errors mean the caller is gone.
func Retryable(err error) bool {
	var pe *resilience.PanicError
	return errors.As(err, &pe)
}

// Execute evaluates p across all shards and returns incL(p): Answer in the
// eval.ShapeIncidents shape.
func (x *Executor) Execute(ctx context.Context, p pattern.Node, opts eval.Options, stats *eval.QueryStats) (*incident.Set, *Completeness, error) {
	a, comp, err := x.Answer(ctx, p, opts, eval.ShapeIncidents, stats)
	return a.Set, comp, err
}

// Answer evaluates p across all shards concurrently, each in its own
// failure domain, and merges the surviving shards' answers of the given
// shape (see Merge for the error and completeness contract).
//
// opts configures the underlying evaluation exactly as eval.New, except
// that opts.Budget is sliced per shard (work dimensions divided evenly;
// wall time shared). A non-nil opts.Meter aggregates across shards — the
// node counters are atomic.
func (x *Executor) Answer(ctx context.Context, p pattern.Node, opts eval.Options, shape eval.Shape, stats *eval.QueryStats) (eval.Answer, *Completeness, error) {
	opts.Budget = opts.Budget.Slice(len(x.parts))
	ev := eval.New(x.src, opts)
	tr := obs.FromContext(ctx)
	attempt := func(ctx context.Context, i, n int) (PartAnswer, error) {
		sh := x.parts[i].Shard
		sp := tr.StartSpan(fmt.Sprintf("shard %d attempt %d", sh.ID, n))
		defer sp.End()
		sp.SetAttr("wid_min", sh.MinWID)
		sp.SetAttr("wid_max", sh.MaxWID)
		sp.SetAttr("wids", len(sh.WIDs))
		var st eval.QueryStats
		a, err := ev.AnswerCtx(ctx, p, sh.WIDs, 1, shape, &st)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return PartAnswer{}, err
		}
		sp.SetAttr("incidents", a.Count)
		pa := PartAnswer{Count: a.Count, WIDs: a.WIDs, Instances: st.Instances}
		if a.Set != nil {
			pa.Incidents = a.Set.Incidents()
		}
		return pa, nil
	}
	return Merge(ctx, x.parts, x.scatter.Gather(ctx, x.parts, attempt), shape, stats)
}
