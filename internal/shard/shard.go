// Package shard is the partition loop of the cluster coordinator
// (internal/cluster): it splits a log's workflow instances into parts of
// contiguous wid ranges — the one placement; there is no policy to pick —
// drives each part's attempts through a circuit breaker and a capped,
// jittered backoff (Scatter), and folds the outcomes into one answer and the
// Completeness document that names every wid range left out (Merge).
//
// The decomposition is exact, not approximate: Definition 4 makes incident
// semantics strictly per-instance — an incident's wid is a single workflow
// id — so a log partitioned by wid evaluates with zero cross-part joins
// and the merged result is byte-identical to the unpartitioned evaluator's
// (the same property MapReduce-style log analysis and partitioned-stream
// recovery exploit). On one node every instance is already its own failure
// domain (eval's scan excludes an instance whose evaluation panics); across
// nodes a part is a worker process, whose faults — a crash, a hang, a lost
// connection — are transient, which is what the retries and breakers are
// for.
//
// Everything time-dependent rides the resilience clock seam and the
// RetryPolicy.Sleep/RetryPolicy.Rand seams, so backoff and breaker
// transitions are deterministically testable without sleeping.
package shard

import "runtime"

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
