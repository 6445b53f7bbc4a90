package eval

import "wlq/internal/wlog"

// Source is the log-access contract the evaluator runs over — the seam
// between the query algorithms (Algorithms 1–3) and the physical storage
// layout. Two implementations exist, and what the log is picks between
// them (docs/STORAGE.md):
//
//   - *Index (this package): the row backend — per-instance []wlog.Record
//     slices plus a per-(instance, activity) map of is-lsn lists, built by
//     NewIndex. This is the access structure Algorithm 2 calls
//     LogRecordsDict; it is appendable, so it serves live logs, and the
//     naive oracle runs over it.
//   - *colstore.Store: the columnar backend — interned activity symbols,
//     parallel wid/lsn/activity columns with per-instance offset ranges,
//     and a sorted posting list per activity. Immutable, so it serves every
//     log that is a snapshot.
//
// Both backends answer every method identically for the same log (the
// cross-backend equivalence suite in internal/colstore enforces this), so
// the choice is purely physical: throughput and memory, never answers.
//
// A Source must be immutable while an Evaluator reads it — the same
// contract EvalParallel and the result cache rely on.
type Source interface {
	// WIDs returns the workflow instance ids present, ascending. Callers
	// must not modify the returned slice.
	WIDs() []uint64
	// InstanceLen returns the number of records of the instance.
	InstanceLen(wid uint64) int
	// Instance returns the records of the instance in is-lsn order.
	// Callers must not modify the returned slice.
	Instance(wid uint64) []wlog.Record
	// Record returns the record of the instance with the given is-lsn;
	// ok is false when the instance or sequence number is unknown.
	Record(wid, seq uint64) (wlog.Record, bool)
	// ActivitySeqs returns the is-lsn values (ascending) of the instance's
	// records whose activity is act. Callers must not modify the result.
	ActivitySeqs(wid uint64, act string) []uint64
	// ActivityCount returns the total number of records (across all
	// instances) carrying the activity name (optimizer statistics).
	ActivityCount(act string) int
	// TotalRecords returns m = |L|.
	TotalRecords() int
	// Activities returns the distinct activity names, sorted.
	Activities() []string
}

// SymbolicSource is the optional fast path a backend with interned activity
// symbols provides. When the evaluator's Source implements it, each atom's
// activity name is resolved to its dense symbol once per plan and every
// per-instance probe thereafter is an integer-keyed posting-list lookup —
// no string hashing or comparison inside the evaluation loops.
type SymbolicSource interface {
	Source
	// ResolveActivity maps an activity name to its interned symbol; ok is
	// false when the name never occurs in the log (its incident set is
	// empty for positive atoms, the full complement for negated ones).
	ResolveActivity(name string) (sym int32, ok bool)
	// ActivitySeqsSym is ActivitySeqs keyed by symbol. sym must come from
	// ResolveActivity on the same source.
	ActivitySeqsSym(wid uint64, sym int32) []uint64
}

// The row backend satisfies the seam (the columnar backend's assertion
// lives in internal/colstore to keep the dependency one-directional).
var _ Source = (*Index)(nil)
