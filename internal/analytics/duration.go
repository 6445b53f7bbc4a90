package analytics

import (
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/wlog"
)

// Real-time duration analytics. The core model has no timestamps — the
// paper orders records by sequence numbers only — but logs imported from
// CSV/XES, or generated with enact.Config.Stamp, carry an RFC 3339 "time"
// attribute per record. These helpers read it.

// TimeAttr is the conventional attribute name carrying a record's
// timestamp (written by enact stamping and the CSV/XES importers).
const TimeAttr = "time"

// RecordTime returns the record's timestamp, parsed from the TimeAttr
// attribute (αout first, then αin). ok is false when the attribute is
// absent or unparsable.
func RecordTime(r wlog.Record) (time.Time, bool) {
	v := r.Out.Get(TimeAttr)
	if v.IsUndefined() {
		v = r.In.Get(TimeAttr)
	}
	s, isStr := v.Str()
	if !isStr {
		return time.Time{}, false
	}
	for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02"} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

// Duration returns the wall-clock span of an incident: the time of its last
// record minus the time of its first. ok is false when either endpoint
// lacks a usable timestamp.
func Duration(ix eval.Source, inc incident.Incident) (time.Duration, bool) {
	first, ok1 := ix.Record(inc.WID(), inc.First())
	last, ok2 := ix.Record(inc.WID(), inc.Last())
	if !ok1 || !ok2 {
		return 0, false
	}
	t1, ok1 := RecordTime(first)
	t2, ok2 := RecordTime(last)
	if !ok1 || !ok2 {
		return 0, false
	}
	return t2.Sub(t1), true
}

// DurationStats summarizes the wall-clock spans of a set's incidents.
type DurationStats struct {
	// Counted is how many incidents had usable timestamps on both ends.
	Counted int
	// Skipped is how many lacked timestamps.
	Skipped int
	Min     time.Duration
	Max     time.Duration
	Mean    time.Duration
}

// Durations computes duration statistics across an incident set.
func Durations(ix eval.Source, set *incident.Set) DurationStats {
	var st DurationStats
	// Sum in float64: large sets of long spans overflow an int64 nanosecond
	// accumulator (2⁶³ ns ≈ 292 years total).
	var total float64
	for _, inc := range set.Incidents() {
		d, ok := Duration(ix, inc)
		if !ok {
			st.Skipped++
			continue
		}
		if st.Counted == 0 || d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		total += float64(d)
		st.Counted++
	}
	if st.Counted > 0 {
		st.Mean = time.Duration(total / float64(st.Counted))
	}
	return st
}
