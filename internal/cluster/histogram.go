package cluster

// Per-worker request-duration histograms (obs.Histogram) backing the
// wlq_worker_query_duration_seconds metric; the server renders them as
// cumulative Prometheus buckets.

// DurationBucketsUS are the per-worker histogram bucket upper bounds in
// microseconds (an overflow bucket catches everything beyond the last).
var DurationBucketsUS = []int64{
	1_000, 5_000, 10_000, 25_000, 50_000, 100_000,
	250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
}

// WorkerDurations is one worker's histogram snapshot: raw (non-cumulative)
// per-bucket counts aligned with DurationBucketsUS plus one overflow slot.
type WorkerDurations struct {
	Worker  string   `json:"worker"`
	Buckets []uint64 `json:"buckets"`
	Count   uint64   `json:"count"`
	SumUS   int64    `json:"sum_us"`
}

// Durations snapshots every worker's request-duration histogram, in
// configured worker order.
func (c *Coordinator) Durations() []WorkerDurations {
	out := make([]WorkerDurations, 0, len(c.workers))
	for _, w := range c.workers {
		h := w.hist.Snapshot()
		out = append(out, WorkerDurations{Worker: w.name, Buckets: h.Buckets, Count: h.Count, SumUS: h.SumUS})
	}
	return out
}
