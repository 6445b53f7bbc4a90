package colstore

import (
	"cmp"
	"maps"
	"slices"

	"wlq/internal/core/eval"
	"wlq/internal/wlog"
)

// Store is the served log layout. Activity names are interned into dense
// symbols; each workflow instance holds its records in is-lsn order and, per
// symbol, the ascending is-lsn values of the records carrying it; a wid
// directory reaches the instances.
//
// A Store is an immutable version of a log. Append returns a new version that
// shares everything the appended records leave alone: it rebuilds only the
// instances they extend, the directory when one of them opens a wid, and the
// symbol table when one carries a new activity. So a reader that holds a
// version reads it without a lock while a writer appends (copy on write), and
// Build is the same construction over a whole log, carving each column of
// every instance from one allocation.
//
// The zero Store is the empty log.
type Store struct {
	syms    SymbolTable
	names   []string // distinct activity names, sorted
	widList []uint64 // ascending
	widIdx  map[uint64]int32
	insts   []*instance // parallel to widList
	stats   []symStat   // indexed by symbol
	total   int
	lastLSN uint64
	origin  *Origin
	// sparse puts every instance in the sparse posting layout, so tests can
	// check it on logs whose alphabet would not need it.
	sparse bool
}

// Origin identifies a history of versions: Build, or the first Append to an
// empty store, starts one, and every later Append continues its receiver's.
// A writer that appends only to its newest version, as stream.Monitor does,
// gives every lsn of a history one content.
type Origin struct{ _ byte }

// symStat is one symbol's share of the log: how many records carry it, and
// the newest lsn among them.
type symStat struct {
	count   int
	lastLSN uint64
}

// instance is one workflow instance of a version: recs in is-lsn order, and
// seqs, their is-lsn values grouped by activity symbol (ascending within a
// group). The group bounds come in one of two layouts:
//
//   - dense (syms nil): off[sym]:off[sym+1] is symbol sym's group, for every
//     symbol up to the instance's largest, so a probe is two loads.
//   - sparse: syms lists the instance's distinct symbols, ascending, and
//     off[i]:off[i+1] is syms[i]'s group; a probe binary-searches syms.
//
// An instance is dense while its largest symbol is below denseSlack plus
// twice its record count, so its offsets cost at most 8 bytes per record and
// a constant per instance whatever the size of the alphabet. Past that bound
// (a huge alphabet) the sparse row is the only one whose size follows the
// instance's own records.
type instance struct {
	recs []wlog.Record
	seqs []uint64
	off  []int32
	syms []int32
}

const denseSlack = 32

// Store satisfies the evaluator's backend seam. (It also satisfies
// rewrite.Stats structurally — ActivityCount, TotalRecords, WIDs — for the
// optimizer's selectivity estimates.)
var _ eval.Source = (*Store)(nil)

// A live append is checked against the version it extends (wlog.Check).
var _ wlog.Tail = (*Store)(nil)

// Build constructs the store of a log. The log's records are copied; l is not
// retained.
func Build(l *wlog.Log) *Store { return new(Store).Append(l.Records()...) }

// Append returns a new version holding the receiver's records and recs. The
// receiver, and every slice it has handed out, stays as it is. Within an
// instance recs follow its existing records in the order given; an instance
// left out of is-lsn order (an unchecked log) is sorted, stably.
func (s *Store) Append(recs ...wlog.Record) *Store {
	if len(recs) == 0 {
		return s
	}
	ns := *s
	if ns.origin == nil {
		ns.origin = new(Origin)
	}
	ns.total += len(recs)
	ns.stats = slices.Clone(s.stats)
	for _, r := range recs {
		sym, ok := ns.syms.Resolve(r.Activity)
		if !ok {
			if ns.syms.Len() == s.syms.Len() { // the first new activity: copy on write
				ns.syms = SymbolTable{names: slices.Clip(s.syms.names), ids: maps.Clone(s.syms.ids)}
			}
			sym = ns.syms.Intern(r.Activity)
			ns.stats = append(ns.stats, symStat{})
		}
		ns.stats[sym].count++
		ns.stats[sym].lastLSN = max(ns.stats[sym].lastLSN, r.LSN)
		ns.lastLSN = max(ns.lastLSN, r.LSN)
	}
	if ns.syms.Len() > s.syms.Len() {
		ns.names = slices.Clone(ns.syms.names)
		slices.Sort(ns.names)
	}

	// Each touched instance is rebuilt once, from its old records followed
	// by its new ones in the order given: all lays the instances side by
	// side, bounds[i]:bounds[i+1] the i-th touched one's.
	at := make(map[uint64]int) // wid -> position in touched
	var touched []uint64
	bounds := []int{0}
	for _, r := range recs {
		i, ok := at[r.WID]
		if !ok {
			i = len(touched)
			at[r.WID] = i
			touched = append(touched, r.WID)
			bounds = append(bounds, s.InstanceLen(r.WID))
		}
		bounds[i+1]++
	}
	for i := 1; i < len(bounds); i++ {
		bounds[i] += bounds[i-1]
	}
	all := make([]wlog.Record, bounds[len(touched)])
	next := make([]int, len(touched))
	for i, wid := range touched {
		next[i] = bounds[i] + copy(all[bounds[i]:], s.Instance(wid))
	}
	for _, r := range recs {
		i := at[r.WID]
		all[next[i]] = r
		next[i]++
	}
	built := ns.index(all, bounds)

	// The directory: a copy with the touched instances in place; when a wid
	// is new, the wid list and index are rebuilt too.
	ns.widList = slices.Clip(s.widList)
	for _, wid := range touched {
		if _, ok := s.widIdx[wid]; !ok {
			ns.widList = append(ns.widList, wid)
		}
	}
	if len(ns.widList) == len(s.widList) {
		ns.insts = slices.Clone(s.insts)
	} else {
		slices.Sort(ns.widList)
		ns.widIdx = make(map[uint64]int32, len(ns.widList))
		ns.insts = make([]*instance, len(ns.widList))
		for w, wid := range ns.widList {
			ns.widIdx[wid] = int32(w)
			if old, ok := s.widIdx[wid]; ok {
				ns.insts[w] = s.insts[old]
			}
		}
	}
	for i, wid := range touched {
		ns.insts[ns.widIdx[wid]] = &built[i]
	}
	return &ns
}

// index builds the instances whose records are all[bounds[i]:bounds[i+1]],
// sorting any out of is-lsn order. Their records, is-lsn groups and offset
// rows are carved from one allocation each.
func (s *Store) index(all []wlog.Record, bounds []int) []instance {
	built := make([]instance, len(bounds)-1)
	sym := make([]int32, len(all)) // each record's activity symbol
	rows, cells := make([]int, len(built)), 0
	for i := range built {
		lo, hi := bounds[i], bounds[i+1]
		in, ys := &built[i], sym[lo:hi]
		in.recs = all[lo:hi:hi]
		if !slices.IsSortedFunc(in.recs, bySeq) {
			slices.SortStableFunc(in.recs, bySeq)
		}
		for k, r := range in.recs {
			ys[k], _ = s.syms.Resolve(r.Activity)
		}
		rows[i] = int(slices.Max(ys)) + 1
		if s.sparse || rows[i] > denseSlack+2*len(ys) {
			in.syms = slices.Clone(ys)
			slices.Sort(in.syms)
			in.syms = slices.Clip(slices.Compact(in.syms))
			rows[i] = len(in.syms)
		}
		cells += rows[i] + 1
	}
	seqs, off := make([]uint64, len(all)), make([]int32, cells)
	for i := range built {
		lo, hi := bounds[i], bounds[i+1]
		in, ys := &built[i], sym[lo:hi]
		in.seqs = seqs[lo:hi:hi]
		in.off, off = off[:rows[i]+1:rows[i]+1], off[rows[i]+1:]
		// A counting sort by symbol: count each group into the slot after
		// it, sum to group starts, place each is-lsn at its group's cursor
		// (which leaves every cursor at the next group's start), shift back.
		for _, y := range ys {
			in.off[in.slot(y)+1]++
		}
		for j := 1; j < len(in.off); j++ {
			in.off[j] += in.off[j-1]
		}
		for k, r := range in.recs {
			j := in.slot(ys[k])
			in.seqs[in.off[j]] = r.Seq
			in.off[j]++
		}
		copy(in.off[1:], in.off)
		in.off[0] = 0
	}
	return built
}

// slot is the row position of a symbol: for a sparse row, where it is or
// would be.
func (in *instance) slot(sym int32) int {
	if in.syms == nil {
		return int(sym)
	}
	i, _ := slices.BinarySearch(in.syms, sym)
	return i
}

func bySeq(a, b wlog.Record) int { return cmp.Compare(a.Seq, b.Seq) }

// WIDs returns the instance ids, ascending. Callers must not modify the
// returned slice.
func (s *Store) WIDs() []uint64 { return s.widList }

// InstanceLen returns the number of records of the instance (0 when the wid
// is absent).
func (s *Store) InstanceLen(wid uint64) int { return len(s.Instance(wid)) }

// Instance returns the instance's records in is-lsn order, nil when the wid
// is absent. Callers must not modify it.
func (s *Store) Instance(wid uint64) []wlog.Record {
	if w, ok := s.widIdx[wid]; ok {
		return s.insts[w].recs
	}
	return nil
}

// Record returns the instance's record with the given is-lsn.
func (s *Store) Record(wid, seq uint64) (wlog.Record, bool) {
	inst := s.Instance(wid)
	i, ok := slices.BinarySearchFunc(inst, seq, func(r wlog.Record, seq uint64) int { return cmp.Compare(r.Seq, seq) })
	if !ok {
		return wlog.Record{}, false
	}
	return inst[i], true
}

// ResolveActivity maps an activity name to its interned symbol.
func (s *Store) ResolveActivity(name string) (int32, bool) {
	return s.syms.Resolve(name)
}

// ActivitySeqsSym returns the is-lsn values (ascending) of the instance's
// records carrying the symbol: a zero-copy slice of its group, by two loads
// in the dense layout and a binary search in the sparse one. Callers must not
// modify it.
func (s *Store) ActivitySeqsSym(wid uint64, sym int32) []uint64 {
	w, ok := s.widIdx[wid]
	if !ok {
		return nil
	}
	in := s.insts[w]
	i := in.slot(sym)
	if uint(i) >= uint(len(in.off)-1) || in.syms != nil && in.syms[i] != sym {
		return nil
	}
	return in.seqs[in.off[i]:in.off[i+1]]
}

// ActivityCount returns the total number of records (across all instances)
// carrying the activity — the optimizer's selectivity statistic.
func (s *Store) ActivityCount(act string) int { return s.stat(act).count }

// ActivityLastLSN returns the newest lsn of a record carrying the activity
// (0 when none does): with LastLSN, what tells a reader whether records
// appended after some lsn include the activity.
func (s *Store) ActivityLastLSN(act string) uint64 { return s.stat(act).lastLSN }

func (s *Store) stat(act string) symStat {
	if sym, ok := s.syms.Resolve(act); ok {
		return s.stats[sym]
	}
	return symStat{}
}

// Origin returns the history the version belongs to (nil for an empty store
// never appended to).
func (s *Store) Origin() *Origin { return s.origin }

// LastLSN returns the newest lsn in the version (0 when empty).
func (s *Store) LastLSN() uint64 { return s.lastLSN }

// TotalRecords returns m = |L|.
func (s *Store) TotalRecords() int { return s.total }

// Activities returns the distinct activity names, sorted. Callers must not
// modify the returned slice.
func (s *Store) Activities() []string { return s.names }
