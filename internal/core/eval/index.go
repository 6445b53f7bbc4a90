// Package eval implements incident-pattern query evaluation: the operator
// algorithms of Algorithm 1, the per-instance record index and post-order
// incident-tree evaluation of Algorithms 2–3, plus merge-based variants of
// the operator joins that exploit the sorted order the paper notes but never
// uses (Section 3.1).
package eval

import (
	"slices"
	"sort"

	"wlq/internal/predicate"
	"wlq/internal/wlog"
)

// Index is the access structure Algorithm 2 calls LogRecordsDict: per
// workflow instance, the records in is-lsn order, plus a per-(instance,
// activity) list of is-lsn values, kept as the instance's sparse Row, so
// atomic patterns are answered without scanning (the "index structure for
// each workflow id and activity" of Section 3.2). It also keeps global
// activity frequencies for the cost-based optimizer.
//
// An Index is immutable once built and safe for concurrent readers. It is
// the naive oracle's storage: nothing is served from it.
type Index struct {
	wids     []uint64
	inst     map[uint64][]wlog.Record
	rows     []Row // per position, sparse
	actCount map[string]int
	names    []string  // distinct activities, sorted; a symbol is a position
	attrs    []string  // distinct attribute names, sorted; a key is a position
	carriers [][]int32 // per symbol, the positions of the instances carrying it
	total    int
}

// NewEmptyIndex creates an index with no records.
func NewEmptyIndex() *Index {
	return &Index{inst: make(map[uint64][]wlog.Record), actCount: make(map[string]int)}
}

// NewIndex builds the index in one pass over the log.
func NewIndex(l *wlog.Log) *Index {
	ix := NewEmptyIndex()
	for i := 0; i < l.Len(); i++ {
		r := l.Record(i)
		if len(ix.inst[r.WID]) == 0 {
			ix.wids = append(ix.wids, r.WID)
		}
		ix.inst[r.WID] = append(ix.inst[r.WID], r)
		ix.actCount[r.Activity]++
		ix.total++
	}
	ix.sortAll()
	return ix
}

// sortAll establishes the order invariants after bulk loading, and lays
// out each instance's row and the instance postings.
func (ix *Index) sortAll() {
	sort.Slice(ix.wids, func(i, j int) bool { return ix.wids[i] < ix.wids[j] })
	for _, recs := range ix.inst {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	}
	for name := range ix.actCount {
		ix.names = append(ix.names, name)
	}
	sort.Strings(ix.names)
	ix.rows = make([]Row, len(ix.wids))
	ix.carriers = make([][]int32, len(ix.names))
	for pos, wid := range ix.wids {
		bySym := make(map[int32][]uint64)
		row := &ix.rows[pos]
		for _, r := range ix.inst[wid] {
			sym, _ := ix.ResolveActivity(r.Activity)
			if bySym[sym] == nil {
				row.Syms = append(row.Syms, sym)
			}
			bySym[sym] = append(bySym[sym], r.Seq)
		}
		slices.Sort(row.Syms)
		row.Off = []int32{0}
		for _, sym := range row.Syms {
			row.Post = append(row.Post, bySym[sym]...)
			row.Off = append(row.Off, int32(len(row.Post)))
			ix.carriers[sym] = append(ix.carriers[sym], int32(pos))
		}
		row.Post = slices.Clip(row.Post)
	}
	seen := make(map[string]bool)
	for _, recs := range ix.inst {
		for _, r := range recs {
			for _, m := range []wlog.AttrMap{r.In, r.Out} {
				for name := range m {
					if !seen[name] {
						seen[name] = true
						ix.attrs = append(ix.attrs, name)
					}
				}
			}
		}
	}
	sort.Strings(ix.attrs)
}

// WIDs returns the workflow instance ids present, in ascending order.
// Callers must not modify the returned slice.
func (ix *Index) WIDs() []uint64 { return ix.wids }

// Position returns the instance's position in WIDs, by binary search.
func (ix *Index) Position(wid uint64) (int, bool) {
	return slices.BinarySearch(ix.wids, wid)
}

// Row returns the instance's row, in the sparse layout.
func (ix *Index) Row(pos int) Row { return ix.rows[pos] }

// Record returns the record of the instance with the given is-lsn.
// ok is false when the instance or sequence number is unknown.
func (ix *Index) Record(wid, seq uint64) (wlog.Record, bool) {
	recs := ix.inst[wid]
	if seq == 0 || seq > uint64(len(recs)) {
		return wlog.Record{}, false
	}
	// Valid logs have dense per-instance is-lsn starting at 1.
	if r := recs[seq-1]; r.Seq == seq {
		return r, true
	}
	// Fallback for indexes built over unchecked logs.
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Seq >= seq })
	if i < len(recs) && recs[i].Seq == seq {
		return recs[i], true
	}
	return wlog.Record{}, false
}

// Instance returns the records of the instance in is-lsn order. Callers
// must not modify the returned slice.
func (ix *Index) Instance(wid uint64) []wlog.Record { return ix.inst[wid] }

// ActivitySeqs returns the is-lsn values (ascending) of the instance's
// records whose activity is act. Callers must not modify the result.
func (ix *Index) ActivitySeqs(wid uint64, act string) []uint64 {
	pos, ok := ix.Position(wid)
	sym, known := ix.ResolveActivity(act)
	if !ok || !known {
		return nil
	}
	return ix.rows[pos].Postings(sym)
}

// ResolveActivity maps an activity name to its position among the sorted
// activity names.
func (ix *Index) ResolveActivity(name string) (int32, bool) {
	i := sort.SearchStrings(ix.names, name)
	return int32(i), i < len(ix.names) && ix.names[i] == name
}

// ResolveAttr maps an attribute name to its position among the sorted
// attribute names.
func (ix *Index) ResolveAttr(name string) (int32, bool) {
	i := sort.SearchStrings(ix.attrs, name)
	return int32(i), i < len(ix.attrs) && ix.attrs[i] == name
}

// AttrAt looks the attribute with the key up in the record, by name.
func (ix *Index) AttrAt(pos int, seq uint64, key int32, side predicate.Side) (wlog.Value, bool) {
	r, ok := ix.Record(ix.wids[pos], seq)
	if !ok {
		return wlog.Value{}, false
	}
	return predicate.Lookup(r, side, ix.attrs[key])
}

// InstancesWith returns the positions of the instances carrying the
// activity with the symbol, ascending.
func (ix *Index) InstancesWith(sym int32) []int32 { return ix.carriers[sym] }

// ActivityCount returns the total number of records (across all instances)
// carrying the activity name. Used by the optimizer's cost model.
func (ix *Index) ActivityCount(act string) int { return ix.actCount[act] }

// TotalRecords returns m = |L|.
func (ix *Index) TotalRecords() int { return ix.total }

// Activities returns the distinct activity names, sorted.
func (ix *Index) Activities() []string { return slices.Clone(ix.names) }
