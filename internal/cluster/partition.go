package cluster

// Part is one partition of a log's workflow instances: the wids one worker
// evaluates as a unit.
type Part struct {
	// ID is the part's index, 0-based: part i goes to the i-th worker.
	ID int
	// WIDs are the member instance ids, ascending.
	WIDs []uint64
	// MinWID and MaxWID bound the members: the part owns every instance of
	// the log inside the closed interval.
	MinWID, MaxWID uint64
}

// Partition splits wids into at most n parts of contiguous wid ranges. Range
// parts keep the global incident order — concatenating part results in part
// order is already canonical — and a failed part excludes one describable
// wid interval. The result may have fewer than n entries (never more, none
// empty). The input slice is not modified and must be ascending, as every
// eval.Source's wid list is.
func Partition(wids []uint64, n int) []Part {
	n = min(n, len(wids))
	if n <= 0 {
		return nil
	}
	chunk := (len(wids) + n - 1) / n
	parts := make([]Part, 0, n)
	for lo := 0; lo < len(wids); lo += chunk {
		hi := min(lo+chunk, len(wids))
		parts = append(parts, Part{
			ID:     len(parts),
			WIDs:   wids[lo:hi:hi],
			MinWID: wids[lo],
			MaxWID: wids[hi-1],
		})
	}
	return parts
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
