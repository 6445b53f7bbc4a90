package eval

import (
	"slices"

	"wlq/internal/predicate"
	"wlq/internal/wlog"
)

// Source is the log-access contract the evaluator runs over — the seam
// between the query algorithms (Algorithms 1–3) and the physical storage
// layout (docs/STORAGE.md). Two implementations exist:
//
//   - *colstore.Store serves every log, snapshot or live: interned activity
//     and attribute symbols, and per instance its records as pointer-free
//     columns, a posting list per symbol, and its attributes in a byte arena.
//   - *Index (this package) is the access structure Algorithm 2 calls
//     LogRecordsDict: per instance its records and one sparse Row of is-lsn
//     lists, one per activity it carries. It serves nothing; it is the
//     storage of the naive oracle the store is checked against, kept
//     separate from what it checks.
//
// Both answer every method identically for the same log (the equivalence
// suite in internal/colstore enforces this).
//
// A Source must be immutable while an Evaluator reads it — the same contract
// EvalParallel and the result cache rely on.
//
// The probes a query's evaluation makes are positional: an instance is
// named by its position in WIDs, which a scan resolves once per instance
// (no lookup at all when it scans a run of WIDs), and the instance
// postings name the instances a symbol occurs in by position too, so a scan
// visits only the instances its plan can match (docs/STORAGE.md). An
// evaluated instance costs one interface call, Row; its atoms then read
// their posting lists from the row.
type Source interface {
	// WIDs returns the workflow instance ids present, ascending. Callers
	// must not modify the returned slice.
	WIDs() []uint64
	// Position returns the position of the instance in WIDs, the key of the
	// probes below; ok is false when the wid is absent.
	Position(wid uint64) (pos int, ok bool)
	// Row returns the posting row of the instance at the position: every
	// posting list of the instance, which the scan resolves once per
	// instance. Its slices must not change while the source is read: the
	// evaluator's atom incidents are capacity-clipped views of them, alive
	// until their instance's evaluation ends.
	Row(pos int) Row
	// Instance returns the records of the instance in is-lsn order, and
	// Record the one with the given is-lsn (ok false when the instance or
	// sequence number is unknown). They are for callers that want whole
	// records (Verify, analytics, the library): the store decodes them on
	// demand, so no query's evaluation calls either. Callers must not
	// modify what they return.
	Instance(wid uint64) []wlog.Record
	Record(wid, seq uint64) (wlog.Record, bool)
	// ResolveAttr maps an attribute name to the source's key symbol for it,
	// once per guard per query; ok is false when no record carries it.
	ResolveAttr(name string) (key int32, ok bool)
	// AttrAt reads the value of the attribute with the key symbol (from
	// ResolveAttr on the same source) on a side of the record with the
	// given is-lsn of the instance at the position, as predicate.Lookup
	// does on the record; ok is false when the record does not carry it
	// there. It is the guard probe, called once per candidate record and
	// guard, and allocates nothing.
	AttrAt(pos int, seq uint64, key int32, side predicate.Side) (v wlog.Value, ok bool)
	// ResolveActivity maps an activity name to the source's symbol for it,
	// once per atom per query; ok is false when the name never occurs in the
	// log (its incident set is empty for positive atoms, the full complement
	// for negated ones).
	ResolveActivity(name string) (sym int32, ok bool)
	// InstancesWith returns the positions (ascending) of the instances with
	// a record whose activity has the symbol: the instance postings, from
	// which a scan derives the instances its plan can match. Callers must
	// not modify the result.
	InstancesWith(sym int32) []int32
	// ActivityCount returns the total number of records (across all
	// instances) carrying the activity name (optimizer statistics).
	ActivityCount(act string) int
	// TotalRecords returns m = |L|.
	TotalRecords() int
	// Activities returns the distinct activity names, sorted.
	Activities() []string
}

// The oracle's storage satisfies the seam (the store's assertion lives in
// internal/colstore to keep the dependency one-directional).
var _ Source = (*Index)(nil)

// Row is one instance's records' is-lsn values grouped by activity symbol:
// group i is Post[Off[i]:Off[i+1]], ascending. Post holds one value per
// record of the instance. A row comes in one of two layouts:
//
//   - dense (Syms nil): group i is symbol i's, for every symbol up to the
//     instance's largest, so a probe is two loads.
//   - sparse: Syms lists the instance's distinct symbols, ascending, and
//     group i is the i-th's; a probe binary-searches it.
//
// Callers must not modify a row's slices.
type Row struct {
	Post []uint64
	Off  []int32
	Syms []int32
}

// Postings returns the is-lsn values (ascending) of the instance's records
// whose activity has the symbol, which must come from ResolveActivity on
// the row's source: a capacity-clipped view of the row, nil when it has
// none.
func (r *Row) Postings(sym int32) []uint64 {
	i := int(sym)
	if r.Syms != nil {
		var ok bool
		if i, ok = slices.BinarySearch(r.Syms, sym); !ok {
			return nil
		}
	}
	if i < 0 || i >= len(r.Off)-1 {
		return nil
	}
	lo, hi := r.Off[i], r.Off[i+1]
	return r.Post[lo:hi:hi]
}

// Len returns the number of records of the instance.
func (r *Row) Len() int { return len(r.Post) }
