package colstore

import (
	"slices"

	"wlq/internal/core/eval"
	"wlq/internal/predicate"
	"wlq/internal/wlog"
)

// Store is the served log layout. Activity and attribute names are interned
// into dense symbols, and every record lives in flat, pointer-free columns:
// its lsn, is-lsn and activity symbol, and an offset into a byte arena
// holding its attribute maps (attrs.go). Per instance, the records are
// contiguous in is-lsn order, and so are, per symbol, the ascending is-lsn
// values of the records carrying it; a wid directory of integer offsets
// reaches them. An instance's position in the ascending wid list is the key
// of every evaluator probe, and per symbol the store also keeps the
// positions of the instances carrying it (the instance postings).
//
// A Store is an immutable version of a log. Append returns a new version that
// shares everything the appended records leave alone: it lays the instances
// they extend out again in one new chunk of columns, rebuilds the directory
// when one of them opens a wid and the symbol tables when one carries a new
// name, and copies the instance postings of the symbols an instance gains
// (all of them, renumbered, when a new wid moves old positions). So a
// reader that holds a version reads it without a
// lock while a writer appends (copy on write), and a Builder is the same
// construction over a whole log, in one chunk. The collector's work on a
// store is a few pointers per chunk, whatever the number of records or
// instances.
//
// The zero Store is the empty log.
type Store struct {
	syms    SymbolTable // activity names
	keys    SymbolTable // attribute names
	names   []string    // distinct activity names, sorted
	widList []uint64    // ascending: an instance's position is its directory key
	dir     []loc       // parallel to widList
	// carriers holds, per symbol, the positions in widList of the instances
	// with a record carrying it, ascending.
	carriers [][]int32
	// chunks hold the columns; a slot is nil once no instance of the
	// version lies in it, and live counts each slot's records in use.
	chunks  []*chunk
	live    []int32
	stats   []symStat // indexed by symbol
	total   int
	lastLSN uint64
	origin  *Origin
	// sparse puts every instance in the sparse posting layout, so tests can
	// check it on logs whose alphabet would not need it.
	sparse bool
}

// Origin identifies a history of versions: Build, or the first Append to an
// empty store, starts one, and every later Append continues its receiver's.
// A writer that appends each batch to its newest version, as
// ingest.Coordinator and stream.Monitor do, gives every lsn of a history one
// content.
type Origin struct{ _ byte }

// symStat is one symbol's share of the log: how many records carry it, and
// the newest lsn among them.
type symStat struct {
	count   int
	lastLSN uint64
}

// chunk is the columns of the instances one Build or Append laid out, each
// instance's records contiguous in is-lsn order. Record k's attribute run is
// arena[attr[k]:attr[k+1]]. post holds each instance's is-lsn values grouped
// by activity symbol (ascending within a group), at the instance's record
// positions; off holds each instance's group bounds, relative to its first
// record, and rsyms the symbols of its sparse rows.
type chunk struct {
	lsn, seq []uint64
	act      []int32
	attr     []uint32 // len(lsn)+1
	arena    []byte
	post     []uint64
	off      []int32
	rsyms    []int32
}

// loc is where an instance lies in its chunk: records lo..lo+n-1, and its
// offset row off..off+rows. The row comes in one of two layouts:
//
//   - dense (syms < 0): row slot sym is symbol sym's group, for every
//     symbol up to the instance's largest, so a probe is two loads.
//   - sparse: rsyms[syms:syms+rows] lists the instance's distinct symbols,
//     ascending, and slot i is the i-th's group; a probe binary-searches it.
//
// An instance is dense while its largest symbol is below denseSlack plus
// twice its record count, so its offsets cost at most 8 bytes per record and
// a constant per instance whatever the size of the alphabet. Past that bound
// (a huge alphabet) the sparse row is the only one whose size follows the
// instance's own records.
type loc struct {
	chunk, lo, n, off, rows, syms int32
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
func Build(l *wlog.Log) *Store {
	s, _ := BuildChecked(l)
	return s
}

// BuildChecked is Build, also returning the log's first Definition 2
// violation (nil when it is valid). The store is built either way.
func BuildChecked(l *wlog.Log) (*Store, error) {
	var b Builder
	b.AddLog(l)
	return b.Finish()
}

// Append returns a new version holding the receiver's records and recs. The
// receiver, and every slice it has handed out, stays as it is. Within an
// instance recs follow its existing records in the order given; an instance
// left out of is-lsn order (an unchecked log) is sorted, stably. recs are
// not retained.
func (s *Store) Append(recs ...wlog.Record) *Store {
	if len(recs) == 0 {
		return s
	}
	st := staging{base: s, syms: s.syms, keys: s.keys}
	st.grow(len(recs))
	for _, r := range recs {
		st.add(r)
	}
	return st.extend()
}

// WIDs returns the instance ids, ascending. Callers must not modify the
// returned slice.
func (s *Store) WIDs() []uint64 { return s.widList }

// find returns the instance's place and chunk.
func (s *Store) find(wid uint64) (*loc, *chunk, bool) {
	w, ok := s.Position(wid)
	if !ok {
		return nil, nil, false
	}
	l := &s.dir[w]
	return l, s.chunks[l.chunk], true
}

// at is the chunk position of the instance's record with the given is-lsn:
// is-lsn k is the k-th record in a valid log, and is searched for otherwise.
func (l *loc) at(c *chunk, seq uint64) (int, bool) {
	seqs := c.seq[l.lo : l.lo+l.n]
	if seq-1 < uint64(len(seqs)) && seqs[seq-1] == seq {
		return int(l.lo) + int(seq-1), true
	}
	i, ok := slices.BinarySearch(seqs, seq)
	return int(l.lo) + i, ok
}

// Position returns the instance's position in WIDs, the key of the
// positional probes (ok false when the wid is absent): a binary search of
// the wid list.
func (s *Store) Position(wid uint64) (int, bool) {
	return slices.BinarySearch(s.widList, wid)
}

// Row returns the posting row of the instance at the position: zero-copy,
// capacity-clipped slices of its chunk's columns. Callers must not modify
// it.
func (s *Store) Row(pos int) eval.Row {
	l := &s.dir[pos]
	return l.row(s.chunks[l.chunk])
}

// InstanceTail returns the is-lsn of the instance's last record and whether
// that record is its END (0 and false when the wid is absent): what
// wlog.Check reads of the version a batch extends.
func (s *Store) InstanceTail(wid uint64) (lastSeq uint64, ended bool) {
	l, c, ok := s.find(wid)
	if !ok {
		return 0, false
	}
	k := l.lo + l.n - 1
	end, ok := s.syms.Resolve(wlog.ActivityEnd)
	return c.seq[k], ok && c.act[k] == end
}

// Instance returns the instance's records in is-lsn order, decoded from the
// columns into fresh records that share nothing with the store; nil when
// the wid is absent.
func (s *Store) Instance(wid uint64) []wlog.Record {
	l, c, ok := s.find(wid)
	if !ok {
		return nil
	}
	out := make([]wlog.Record, l.n)
	for i := range out {
		out[i] = s.record(c, wid, int(l.lo)+i)
	}
	return out
}

// Record returns the instance's record with the given is-lsn, decoded as
// Instance's are.
func (s *Store) Record(wid, seq uint64) (wlog.Record, bool) {
	l, c, ok := s.find(wid)
	if !ok {
		return wlog.Record{}, false
	}
	k, ok := l.at(c, seq)
	if !ok {
		return wlog.Record{}, false
	}
	return s.record(c, wid, k), true
}

func (s *Store) record(c *chunk, wid uint64, k int) wlog.Record {
	r := wlog.Record{LSN: c.lsn[k], WID: wid, Seq: c.seq[k], Activity: s.syms.Name(c.act[k])}
	r.In, r.Out = decodeAttrs(c.arena[c.attr[k]:c.attr[k+1]], &s.keys)
	return r
}

// ResolveAttr maps an attribute name to its interned key symbol.
func (s *Store) ResolveAttr(name string) (int32, bool) { return s.keys.Resolve(name) }

// AttrAt reads the value of the attribute with the key symbol on a side of
// the record with the given is-lsn of the instance at the position, in
// place: ok is false when the record does not carry it there. It allocates
// nothing; a string value aliases the store.
func (s *Store) AttrAt(pos int, seq uint64, key int32, side predicate.Side) (wlog.Value, bool) {
	l := &s.dir[pos]
	c := s.chunks[l.chunk]
	k, ok := l.at(c, seq)
	if !ok {
		return wlog.Value{}, false
	}
	return lookupAttr(c.arena[c.attr[k]:c.attr[k+1]], key, side)
}

// ResolveActivity maps an activity name to its interned symbol.
func (s *Store) ResolveActivity(name string) (int32, bool) {
	return s.syms.Resolve(name)
}

// row is the instance's posting row in its chunk: its records' slice of
// post, its offset row, and in the sparse layout its symbols.
func (l *loc) row(c *chunk) eval.Row {
	lo, hi := int(l.lo), int(l.lo+l.n)
	r := eval.Row{Post: c.post[lo:hi:hi], Off: c.off[l.off : l.off+l.rows+1 : l.off+l.rows+1]}
	if l.syms >= 0 {
		r.Syms = c.rsyms[l.syms : l.syms+l.rows : l.syms+l.rows]
	}
	return r
}

// postings is the instance's group of the symbol; nil when it has none.
func (l *loc) postings(c *chunk, sym int32) []uint64 {
	r := l.row(c)
	return r.Postings(sym)
}

// appendSyms appends the symbols the instance's records carry, ascending.
func (l *loc) appendSyms(dst []int32, c *chunk) []int32 {
	if l.syms >= 0 {
		return append(dst, c.rsyms[l.syms:l.syms+l.rows]...)
	}
	off := c.off[l.off : l.off+l.rows+1]
	for i := range l.rows {
		if off[i+1] > off[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// InstancesWith returns the positions, ascending, of the instances with a
// record carrying the symbol. Callers must not modify the returned slice.
func (s *Store) InstancesWith(sym int32) []int32 {
	if uint(sym) >= uint(len(s.carriers)) {
		return nil
	}
	return s.carriers[sym]
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
