// Package shard partitions a workflow log's instances into shards of
// contiguous wid ranges — the one placement; there is no policy to pick —
// and evaluates incident-pattern queries shard by shard, each shard in its
// own failure domain.
//
// The decomposition is exact, not approximate: Definition 4 makes incident
// semantics strictly per-instance — an incident's wid is a single workflow
// id — so a log partitioned by wid evaluates with zero cross-shard joins
// and the merged result is byte-identical to the unsharded evaluator's
// (the same property MapReduce-style log analysis and partitioned-stream
// recovery exploit). What sharding buys on top of parallelism is blast-
// radius control: a panic, budget trip or pathological instance in one
// slice of the log degrades that slice only, and the query still answers
// from the surviving N−1 shards, with Completeness metadata naming exactly
// which wid ranges are missing and why.
//
// The failure-domain machinery per shard:
//
//   - a budget slice split from the query budget (work dimensions divided
//     across shards; wall time shared, since shards run concurrently);
//   - panic isolation reusing the eval worker boundary, so one poisoned
//     instance fails one shard, not the process;
//   - retry with capped exponential backoff and jitter for retryable
//     faults, and a circuit breaker that stops retrying a persistently
//     poisoned shard.
//
// Everything time-dependent rides the resilience clock seam and the
// Config.Sleep/Config.Rand seams, so backoff and breaker transitions are
// deterministically testable without sleeping.
package shard

import (
	"fmt"
	"runtime"
)

// Shard is one partition of a log's workflow instances.
type Shard struct {
	// ID is the shard's index, 0-based.
	ID int
	// WIDs are the member instance ids, ascending.
	WIDs []uint64
	// MinWID and MaxWID bound the members: the shard owns every instance of
	// the log inside the closed interval.
	MinWID, MaxWID uint64
}

// RangeString renders the shard's wid coverage for error causes and logs.
func (s Shard) RangeString() string {
	if len(s.WIDs) == 0 {
		return "∅"
	}
	if s.MinWID == s.MaxWID {
		return fmt.Sprintf("wid %d", s.MinWID)
	}
	return fmt.Sprintf("wids %d–%d", s.MinWID, s.MaxWID)
}

// Partition splits wids into at most n shards of contiguous wid ranges;
// n <= 0 means GOMAXPROCS. Range shards keep the global incident order —
// concatenating shard results in shard order is already canonical — and a
// failed shard excludes one describable wid interval. The result may have
// fewer than n entries (never more, none empty). The input slice is not
// modified and must be ascending (eval.Index.WIDs guarantees it).
func Partition(wids []uint64, n int) []Shard {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(wids) {
		n = len(wids)
	}
	if n == 0 {
		return nil
	}
	chunk := (len(wids) + n - 1) / n
	shards := make([]Shard, 0, n)
	for lo := 0; lo < len(wids); lo += chunk {
		hi := min(lo+chunk, len(wids))
		shards = append(shards, Shard{
			ID:     len(shards),
			WIDs:   wids[lo:hi:hi],
			MinWID: wids[lo],
			MaxWID: wids[hi-1],
		})
	}
	return shards
}
