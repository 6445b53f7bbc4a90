package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one replayed request share Request; Parent is the ID of
// the span that caused this one (0 for a root). Start and End are nanoseconds
// since the recorder was created.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// recorder keeps spans in memory until flush. The traced run is
// single-threaded, so it needs no lock. The clock is a field so the
// accounting tests can drive it by hand.
type recorder struct {
	now   func() time.Time
	t0    time.Time
	spans []span
}

func newRecorder(now func() time.Time) *recorder {
	return &recorder{now: now, t0: now()}
}

// start opens a span and returns its ID.
func (r *recorder) start(name string, request, parent int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, Request: request, Parent: parent,
		Start: int64(r.now().Sub(r.t0))})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = int64(r.now().Sub(r.t0))
	return time.Duration(s.End - s.Start)
}

// timed records fn as one span.
func (r *recorder) timed(name string, request, parent int, fn func()) time.Duration {
	id := r.start(name, request, parent)
	fn()
	return r.end(id)
}

// selfTimes maps each span ID to its duration minus the part of its interval
// that its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Unit     string           `json:"unit"`
	Requests []request        `json:"requests"`
	Spans    []span           `json:"spans"`
	SelfNS   map[string]int64 `json:"self_ns_by_name"`
}

// flush writes the spans, the replayed requests their Request fields index,
// and the summed self time per span name.
func (r *recorder) flush(path, workload string, seed int64, requests []request) error {
	byName := make(map[string]int64)
	self := selfTimes(r.spans)
	for _, s := range r.spans {
		byName[s.Name] += self[s.ID]
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Unit: "ns", Requests: requests, Spans: r.spans, SelfNS: byName})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
