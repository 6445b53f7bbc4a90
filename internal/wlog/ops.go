package wlog

import "sort"

// ActivityHistogram counts records per activity name, descending by count
// (ties broken by name).
func ActivityHistogram(l *Log) []ActivityCount {
	counts := make(map[string]int)
	for _, r := range l.Records() {
		counts[r.Activity]++
	}
	out := make([]ActivityCount, 0, len(counts))
	for name, n := range counts {
		out = append(out, ActivityCount{Activity: name, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Activity < out[j].Activity
	})
	return out
}

// ActivityCount is one row of ActivityHistogram.
type ActivityCount struct {
	Activity string
	Count    int
}
