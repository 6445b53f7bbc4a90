package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket duration histogram in the Prometheus style:
// per-bucket counts (cumulated at exposition time), a running sum and a
// count, all atomic. Bounds are fixed at construction, so an observation is
// a binary search plus three atomic adds and safe from any goroutine.
type Histogram struct {
	boundsUS []int64
	buckets  []atomic.Uint64 // len(boundsUS)+1; last slot = +Inf
	count    atomic.Uint64
	sumUS    atomic.Int64
}

// NewHistogram creates a histogram over ascending bucket upper bounds in
// microseconds; an implicit +Inf bucket catches everything beyond the last.
// The slice is retained and must not be modified.
func NewHistogram(boundsUS []int64) *Histogram {
	return &Histogram{boundsUS: boundsUS, buckets: make([]atomic.Uint64, len(boundsUS)+1)}
}

// Observe records one duration in the first bucket whose bound is >= it.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	i := sort.Search(len(h.boundsUS), func(i int) bool { return h.boundsUS[i] >= us })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// HistogramSnapshot is a point-in-time copy of a Histogram: raw (not yet
// cumulative) per-bucket counts aligned with BoundsUS plus one overflow slot.
type HistogramSnapshot struct {
	BoundsUS []int64
	Buckets  []uint64
	Count    uint64
	SumUS    int64
}

// Snapshot copies the counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		BoundsUS: h.boundsUS,
		Buckets:  make([]uint64, len(h.buckets)),
		Count:    h.count.Load(),
		SumUS:    h.sumUS.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}
