// Package shard holds only the Executor the benchmark harness
// (bench/layers.go) prices, until ROADMAP item 1(e) deletes it: a thin
// wrapper over eval's one scan, where every instance is already its own
// failure domain. The partition loop it once held — placement, retries,
// breakers, the merge — is the cluster coordinator's (internal/cluster).
package shard

import (
	"context"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
)

// Config sizes an Executor.
type Config struct {
	// Shards is the number of goroutines a query scans the log's instances
	// on (0 = GOMAXPROCS; capped by the instance count).
	Shards int
}

// Executor evaluates queries over one immutable log backend on a fixed
// number of goroutines. It adds nothing to eval.Evaluator.EvalParallelCtx —
// every instance is already its own failure domain there — and stays only as
// the entry point the benchmark harness (bench/layers.go) prices.
type Executor struct {
	src    eval.Source
	shards int
}

// NewExecutor returns an executor over the backend, which must be immutable
// for the executor's lifetime.
func NewExecutor(src eval.Source, cfg Config) *Executor {
	return &Executor{src: src, shards: cfg.Shards}
}

// Execute evaluates p and returns incL(p), all or nothing, as
// EvalParallelCtx on cfg.Shards goroutines does.
func (x *Executor) Execute(ctx context.Context, p pattern.Node, opts eval.Options, stats *eval.QueryStats) (*incident.Set, error) {
	return eval.New(x.src, opts).EvalParallelCtx(ctx, p, x.shards, stats)
}
