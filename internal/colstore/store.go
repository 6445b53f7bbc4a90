package colstore

import (
	"cmp"
	"slices"
	"sort"

	"wlq/internal/core/eval"
	"wlq/internal/wlog"
)

// posting is one activity's occurrence index. seqs holds the activity's
// is-lsn values grouped per instance (ascending within each group); the
// offsets delimiting each instance's group come in two layouts:
//
//   - dense: off has one entry per instance in the log (len = |WIDs|+1,
//     indexed by wid position), so a probe is pure array indexing — O(1).
//     Instances without the activity have an empty range.
//   - sparse: wids lists only the instances where the activity occurs and
//     off runs parallel to it (len = len(wids)+1); a probe binary-searches
//     wids — O(log n). Used when the dense layout's |activities|·|WIDs|
//     offset matrix would blow memory (huge alphabets over many instances).
//
// Build picks one layout per store (dense iff wids==nil in every posting).
type posting struct {
	wids []uint64 // nil in the dense layout
	off  []int32
	seqs []uint64
}

// maxDenseCells caps the dense layout's total offset entries
// (|activities| · (|WIDs|+1)); beyond it Build switches every posting to
// the sparse layout. 4M int32 cells ≈ 16 MB.
const maxDenseCells = 1 << 22

// Store is the columnar backend. All slices are laid out at Build time and
// never mutated afterwards: a Store is an immutable snapshot, exactly like
// the row eval.Index it can replace behind the eval.Source seam, so the
// result cache and hot-reload generation machinery treat the two backends
// identically.
//
// Record storage: recs holds every record grouped by workflow instance and
// sorted by is-lsn within each group; widOff[i]:widOff[i+1] delimits
// instance widList[i]. actCol is the parallel interned-activity column (the
// symbol of recs[k].Activity at actCol[k]) — evaluation loops that only
// need activity identity compare int32s, never strings.
type Store struct {
	syms    *SymbolTable
	recs    []wlog.Record
	actCol  []int32
	widList []uint64
	widOff  []int32
	widIdx  map[uint64]int32
	post    []posting // indexed by activity symbol
	names   []string  // distinct activity names, sorted
}

// Store satisfies the evaluator's backend seam, including the symbolic fast
// path. (It also satisfies rewrite.Stats structurally — ActivityCount,
// TotalRecords, WIDs — so the optimizer's selectivity estimates work
// unchanged over either backend.)
var (
	_ eval.Source         = (*Store)(nil)
	_ eval.SymbolicSource = (*Store)(nil)
)

// Build constructs the columnar representation of a log. The log's records
// are copied; l is not retained.
func Build(l *wlog.Log) *Store { return build(l, maxDenseCells) }

// build is Build with an explicit dense-layout budget (tests force the
// sparse layout by passing 0).
func build(l *wlog.Log, denseCells uint64) *Store {
	n := l.Len()
	s := &Store{
		syms:   NewSymbolTable(),
		recs:   make([]wlog.Record, n),
		actCol: make([]int32, n),
		widIdx: make(map[uint64]int32),
	}

	// Group by instance with a stable counting placement — count per wid,
	// prefix-sum over ascending wids, place in log order: a log arrives in
	// lsn order, which inside an instance is is-lsn order, so nothing needs
	// comparing.
	count := make(map[uint64]int32)
	for i := 0; i < n; i++ {
		count[l.Record(i).WID]++
	}
	s.widList = make([]uint64, 0, len(count))
	for wid := range count {
		s.widList = append(s.widList, wid)
	}
	slices.Sort(s.widList)
	s.widOff = make([]int32, len(s.widList)+1)
	for w, wid := range s.widList {
		s.widIdx[wid] = int32(w)
		s.widOff[w+1] = s.widOff[w] + count[wid]
	}
	next := slices.Clone(s.widOff[:len(s.widList)])
	for i := 0; i < n; i++ {
		r := l.Record(i)
		w := s.widIdx[r.WID]
		s.recs[next[w]] = r
		next[w]++
	}
	// An unchecked log may still list an instance out of is-lsn order; only
	// such an instance is sorted (stably, as the placement was).
	for w := range s.widList {
		inst := s.recs[s.widOff[w]:s.widOff[w+1]]
		if !slices.IsSortedFunc(inst, bySeq) {
			slices.SortStableFunc(inst, bySeq)
		}
	}

	// Interned activity column, and each activity's occurrence count to
	// size its posting list once.
	var actCount []int
	for k := range s.recs {
		sym := s.syms.Intern(s.recs[k].Activity)
		s.actCol[k] = sym
		if int(sym) == len(actCount) {
			actCount = append(actCount, 0)
		}
		actCount[sym]++
	}

	// Posting lists: one pass over the grouped records extends each symbol's
	// list in (wid, is-lsn) order, which is exactly the sorted order the
	// evaluator's merge joins require.
	s.post = make([]posting, len(actCount))
	dense := uint64(len(s.post))*uint64(len(s.widList)+1) <= denseCells
	for i := range s.post {
		s.post[i].seqs = make([]uint64, 0, actCount[i])
		if dense {
			s.post[i].off = make([]int32, len(s.widList)+1)
		}
	}
	if dense {
		// Per-symbol offset rows indexed by wid position: off[w+1] is the
		// symbol's running occurrence count through instance w, so
		// off[w]:off[w+1] is instance w's group in seqs.
		for w := range s.widList {
			for k := s.widOff[w]; k < s.widOff[w+1]; k++ {
				p := &s.post[s.actCol[k]]
				p.seqs = append(p.seqs, s.recs[k].Seq)
			}
			for i := range s.post {
				s.post[i].off[w+1] = int32(len(s.post[i].seqs))
			}
		}
	} else {
		for k := range s.recs {
			r := &s.recs[k]
			p := &s.post[s.actCol[k]]
			if len(p.wids) == 0 || p.wids[len(p.wids)-1] != r.WID {
				p.wids = append(p.wids, r.WID)
				p.off = append(p.off, int32(len(p.seqs)))
			}
			p.seqs = append(p.seqs, r.Seq)
		}
		for i := range s.post {
			s.post[i].off = append(s.post[i].off, int32(len(s.post[i].seqs)))
		}
	}

	s.names = append(s.names, s.syms.names...)
	sort.Strings(s.names)
	return s
}

func bySeq(a, b wlog.Record) int { return cmp.Compare(a.Seq, b.Seq) }

// WIDs returns the instance ids, ascending. Callers must not modify the
// returned slice.
func (s *Store) WIDs() []uint64 { return s.widList }

// InstanceLen returns the number of records of the instance (0 when the wid
// is absent).
func (s *Store) InstanceLen(wid uint64) int {
	i, ok := s.widIdx[wid]
	if !ok {
		return 0
	}
	return int(s.widOff[i+1] - s.widOff[i])
}

// Instance returns the instance's records in is-lsn order — a zero-copy
// slice of the record column. Callers must not modify it.
func (s *Store) Instance(wid uint64) []wlog.Record {
	i, ok := s.widIdx[wid]
	if !ok {
		return nil
	}
	return s.recs[s.widOff[i]:s.widOff[i+1]]
}

// Record returns the instance's record with the given is-lsn. Valid logs
// have dense is-lsn 1..n per instance, so the common case is a direct
// offset; a binary search covers unchecked logs with gaps.
func (s *Store) Record(wid, seq uint64) (wlog.Record, bool) {
	inst := s.Instance(wid)
	if seq >= 1 && seq <= uint64(len(inst)) {
		if r := inst[seq-1]; r.Seq == seq {
			return r, true
		}
	}
	j := sort.Search(len(inst), func(i int) bool { return inst[i].Seq >= seq })
	if j < len(inst) && inst[j].Seq == seq {
		return inst[j], true
	}
	return wlog.Record{}, false
}

// ActivitySeqs returns the is-lsn values (ascending) of the instance's
// records carrying the activity. Callers must not modify the result.
func (s *Store) ActivitySeqs(wid uint64, act string) []uint64 {
	sym, ok := s.syms.Resolve(act)
	if !ok {
		return nil
	}
	return s.ActivitySeqsSym(wid, sym)
}

// ResolveActivity maps an activity name to its interned symbol.
func (s *Store) ResolveActivity(name string) (int32, bool) {
	return s.syms.Resolve(name)
}

// ActivitySeqsSym is the symbolic fast path: a zero-copy slice of the
// activity's is-lsn group for the instance — O(1) array indexing in the
// dense posting layout, O(log n) binary search in the sparse one. No
// allocation, no string comparison either way.
func (s *Store) ActivitySeqsSym(wid uint64, sym int32) []uint64 {
	if sym < 0 || int(sym) >= len(s.post) {
		return nil
	}
	p := &s.post[sym]
	if p.wids == nil { // dense: off is indexed by wid position
		w, ok := s.widIdx[wid]
		if !ok {
			return nil
		}
		if lo, hi := p.off[w], p.off[w+1]; lo < hi {
			return p.seqs[lo:hi]
		}
		return nil
	}
	i := sort.Search(len(p.wids), func(i int) bool { return p.wids[i] >= wid })
	if i == len(p.wids) || p.wids[i] != wid {
		return nil
	}
	return p.seqs[p.off[i]:p.off[i+1]]
}

// ActivityCount returns the total number of records (across all instances)
// carrying the activity — the optimizer's selectivity statistic, answered
// here in O(1) from the posting list length.
func (s *Store) ActivityCount(act string) int {
	sym, ok := s.syms.Resolve(act)
	if !ok {
		return 0
	}
	return len(s.post[sym].seqs)
}

// TotalRecords returns m = |L|.
func (s *Store) TotalRecords() int { return len(s.recs) }

// Activities returns the distinct activity names, sorted. Callers must not
// modify the returned slice.
func (s *Store) Activities() []string { return s.names }

// Symbols exposes the symbol table (read-only after Build) for diagnostics
// and tests.
func (s *Store) Symbols() *SymbolTable { return s.syms }
