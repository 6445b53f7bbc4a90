// Package analytics provides counting and grouping over incident sets — the
// aggregation layer the paper's motivating questions need ("How many
// students every year get referrals with balance > 5000?") but its formal
// language leaves out. Everything here is a documented extension composing
// with, not changing, the core algebra: queries produce incident sets; this
// package folds those sets into counts keyed by instance, attribute value,
// or arbitrary caller-supplied keys.
package analytics

import (
	"fmt"
	"sort"
	"strings"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/wlog"
)

// KeyFunc maps an incident to a grouping key. Returning ok=false excludes
// the incident from the aggregation.
type KeyFunc func(inc incident.Incident) (key string, ok bool)

// Report is an ordered aggregation result: group key → count.
type Report struct {
	keys   []string
	counts map[string]int
}

// NewReport creates an empty report.
func NewReport() *Report {
	return &Report{counts: make(map[string]int)}
}

// Add increments a key's count.
func (r *Report) Add(key string, n int) {
	if _, ok := r.counts[key]; !ok {
		r.keys = append(r.keys, key)
	}
	r.counts[key] += n
}

// Count returns the count for a key (0 when absent).
func (r *Report) Count(key string) int { return r.counts[key] }

// Keys returns the group keys in sorted order.
func (r *Report) Keys() []string {
	out := make([]string, len(r.keys))
	copy(out, r.keys)
	sort.Strings(out)
	return out
}

// Total sums all counts.
func (r *Report) Total() int {
	total := 0
	for _, c := range r.counts {
		total += c
	}
	return total
}

// Len returns the number of groups.
func (r *Report) Len() int { return len(r.keys) }

// String renders "key: count" lines in sorted key order.
func (r *Report) String() string {
	var sb strings.Builder
	for _, k := range r.Keys() {
		fmt.Fprintf(&sb, "%s: %d\n", k, r.counts[k])
	}
	return sb.String()
}

// GroupBy aggregates an incident set by the given key function.
func GroupBy(set *incident.Set, key KeyFunc) *Report {
	r := NewReport()
	for _, inc := range set.Incidents() {
		if k, ok := key(inc); ok {
			r.Add(k, 1)
		}
	}
	return r
}

// DistinctInstances counts the workflow instances with at least one
// incident — the paper's "how many students …" reading, where each
// instance is one student's referral.
func DistinctInstances(set *incident.Set) int {
	return len(set.WIDs())
}

// ByAttr returns a KeyFunc keyed on an attribute of the incident's records:
// the value of the named attribute on the first record (in is-lsn order)
// that defines it, looking at αout first, then αin. Incidents whose records
// never define the attribute are excluded.
func ByAttr(ix eval.Source, attr string) KeyFunc {
	return func(inc incident.Incident) (string, bool) {
		for _, seq := range inc.Seqs() {
			rec, ok := ix.Record(inc.WID(), seq)
			if !ok {
				continue
			}
			if rec.Out.Has(attr) {
				return rec.Out.Get(attr).String(), true
			}
			if rec.In.Has(attr) {
				return rec.In.Get(attr).String(), true
			}
		}
		return "", false
	}
}

// ByInstanceAttr returns a KeyFunc keyed on an attribute drawn from the
// incident's whole workflow instance rather than just its own records: the
// first record of the instance that defines the attribute supplies the key.
// This answers groupings like "by the year of the referral" even when the
// matched incident does not include the GetRefer record itself.
func ByInstanceAttr(ix eval.Source, attr string) KeyFunc {
	return func(inc incident.Incident) (string, bool) {
		for _, rec := range ix.Instance(inc.WID()) {
			if rec.Out.Has(attr) {
				return rec.Out.Get(attr).String(), true
			}
			if rec.In.Has(attr) {
				return rec.In.Get(attr).String(), true
			}
		}
		return "", false
	}
}

// Records materializes an incident back into its log records, in is-lsn
// order, for display.
func Records(ix eval.Source, inc incident.Incident) []wlog.Record {
	out := make([]wlog.Record, 0, inc.Len())
	for _, seq := range inc.Seqs() {
		if rec, ok := ix.Record(inc.WID(), seq); ok {
			out = append(out, rec)
		}
	}
	return out
}
