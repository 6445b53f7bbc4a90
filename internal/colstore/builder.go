package colstore

import (
	"cmp"
	"maps"
	"math"
	"slices"

	"wlq/internal/wlog"
)

// staging is the records of one Build or Append, in the order they came, as
// flat columns: what extend lays out as the new version's chunk. Names are
// interned into copies of the base version's tables, made on the first new
// name, so the base's tables are never written.
type staging struct {
	base          *Store
	syms, keys    SymbolTable
	wid, lsn, seq []uint64
	act           []int32
	attr          []uint32 // record k's run starts at attr[k]; the last ends at len(arena)
	arena         []byte
}

// grow makes room for n more records.
func (st *staging) grow(n int) {
	st.wid = slices.Grow(st.wid, n)
	st.lsn = slices.Grow(st.lsn, n)
	st.seq = slices.Grow(st.seq, n)
	st.act = slices.Grow(st.act, n)
	st.attr = slices.Grow(st.attr, n)
}

// add stages one record; r is not retained.
func (st *staging) add(r wlog.Record) {
	st.wid = append(st.wid, r.WID)
	st.lsn = append(st.lsn, r.LSN)
	st.seq = append(st.seq, r.Seq)
	st.act = append(st.act, intern(&st.syms, st.base.syms.Len(), r.Activity))
	st.attr = append(st.attr, uint32(len(st.arena)))
	st.appendAttrs(r.In, r.Out)
	if uint64(len(st.arena)) > math.MaxUint32 {
		panic("colstore: a chunk's attributes exceed 4 GiB")
	}
}

func (st *staging) key(name string) int32 { return intern(&st.keys, st.base.keys.Len(), name) }

// intern is t.Intern, first copying t while it is still the base version's
// table of base names.
func intern(t *SymbolTable, base int, name string) int32 {
	if id, ok := t.Resolve(name); ok {
		return id
	}
	if t.Len() == base {
		*t = SymbolTable{names: slices.Clip(t.names), ids: maps.Clone(t.ids)}
	}
	return t.Intern(name)
}

// run is staged record k's attribute bytes.
func (st *staging) run(k int) []byte {
	end := len(st.arena)
	if k+1 < len(st.attr) {
		end = int(st.attr[k+1])
	}
	return st.arena[st.attr[k]:end]
}

// record decodes staged record k.
func (st *staging) record(k int) wlog.Record {
	r := wlog.Record{LSN: st.lsn[k], WID: st.wid[k], Seq: st.seq[k], Activity: st.syms.Name(st.act[k])}
	r.In, r.Out = decodeAttrs(st.run(k), &st.keys)
	return r
}

// extend returns the base version with the staged records appended. Every
// instance they touch is laid out again, its old records (column runs and
// arena bytes copied, never decoded) followed by its staged ones, in one new
// chunk whose columns are each one allocation sized in advance.
func (st *staging) extend() *Store {
	s := st.base
	ns := *s
	ns.syms, ns.keys = st.syms, st.keys
	if ns.origin == nil {
		ns.origin = new(Origin)
	}
	ns.total += len(st.lsn)
	ns.stats = append(slices.Clone(s.stats), make([]symStat, ns.syms.Len()-len(s.stats))...)
	for k, sym := range st.act {
		ns.stats[sym].count++
		ns.stats[sym].lastLSN = max(ns.stats[sym].lastLSN, st.lsn[k])
		ns.lastLSN = max(ns.lastLSN, st.lsn[k])
	}
	if ns.syms.Len() > s.syms.Len() {
		ns.names = slices.Clone(ns.syms.names)
		slices.Sort(ns.names)
	}
	parts, at, inst := st.parts()
	c := st.layout(parts, inst)
	ns.place(c, parts, at)
	return &ns
}

// part is one instance of a new chunk: where it lay in the base version
// (from nil for a new instance), its records and attribute bytes, its
// start in the chunk, and its position in the new version's wid list.
type part struct {
	old      loc
	from     *chunk
	recs     int32
	bytes    int
	lo, pos  int32
	next, at int // layout's cursors: record and arena byte
}

// parts lists the instances of the new chunk: the touched ones in order of
// first appearance (at maps each wid to its part, inst each staged record),
// then the instances of the chunks folded in. Small chunks are folded,
// smallest first, while one holds no more records in use than the new chunk
// will: their instances move over unchanged. So chunk sizes grow
// geometrically, a version has O(log n) chunks however many appends built
// it, and a chunk whose instances have mostly moved on does not keep their
// old copies alive for long.
func (st *staging) parts() (parts []part, at map[uint64]int32, inst []int32) {
	s := st.base
	moved := func(l loc) part {
		c := s.chunks[l.chunk]
		return part{old: l, from: c, recs: l.n, bytes: int(c.attr[l.lo+l.n] - c.attr[l.lo])}
	}
	at = make(map[uint64]int32)
	inst = make([]int32, len(st.wid))
	for k, wid := range st.wid {
		i, ok := at[wid]
		if !ok {
			i = int32(len(parts))
			at[wid] = i
			var p part
			if w, ok := s.Position(wid); ok {
				p = moved(s.dir[w])
			}
			parts = append(parts, p)
		}
		inst[k] = i
		parts[i].recs++
		parts[i].bytes += len(st.run(k))
	}

	pending := 0
	for _, p := range parts {
		pending += int(p.recs)
	}
	var slots []int32 // the base's chunks, fewest records in use first
	for i, c := range s.chunks {
		if c != nil {
			slots = append(slots, int32(i))
		}
	}
	slices.SortFunc(slots, func(a, b int32) int { return cmp.Compare(s.live[a], s.live[b]) })
	fold := make([]bool, len(s.chunks))
	folded := 0
	for _, c := range slots {
		if int(s.live[c]) > pending {
			break
		}
		fold[c] = true
		folded++
		pending += int(s.live[c])
	}
	for w := 0; folded > 0 && w < len(s.dir); w++ {
		if _, ok := at[s.widList[w]]; fold[s.dir[w].chunk] && !ok {
			at[s.widList[w]] = int32(len(parts))
			parts = append(parts, moved(s.dir[w]))
		}
	}
	return parts, at, inst
}

// layout builds the chunk of the parts: each one's old run copied, then its
// staged records placed in the order they came, then sorted by is-lsn if an
// unchecked log left it out of order.
func (st *staging) layout(parts []part, inst []int32) *chunk {
	var recs, bytes int
	for i := range parts {
		p := &parts[i]
		p.lo, p.next, p.at = int32(recs), recs, bytes
		recs += int(p.recs)
		bytes += p.bytes
	}
	if uint64(bytes) > math.MaxUint32 || recs > math.MaxInt32 {
		panic("colstore: a chunk exceeds 4 GiB of attributes or 2^31 records")
	}
	c := &chunk{
		lsn: make([]uint64, recs), seq: make([]uint64, recs), act: make([]int32, recs),
		attr: make([]uint32, recs+1), arena: make([]byte, bytes),
	}
	for i := range parts {
		p := &parts[i]
		if p.from == nil {
			continue
		}
		o, from := p.old, p.from
		lo, hi := o.lo, o.lo+o.n
		copy(c.lsn[p.next:], from.lsn[lo:hi])
		copy(c.seq[p.next:], from.seq[lo:hi])
		copy(c.act[p.next:], from.act[lo:hi])
		for k := lo; k < hi; k++ {
			c.attr[p.next+int(k-lo)] = from.attr[k] - from.attr[lo] + uint32(p.at)
		}
		p.at += copy(c.arena[p.at:], from.arena[from.attr[lo]:from.attr[hi]])
		p.next += int(o.n)
	}
	for k := range st.lsn {
		p := &parts[inst[k]]
		c.lsn[p.next], c.seq[p.next], c.act[p.next], c.attr[p.next] = st.lsn[k], st.seq[k], st.act[k], uint32(p.at)
		p.at += copy(c.arena[p.at:], st.run(k))
		p.next++
	}
	c.attr[recs] = uint32(bytes)
	for _, p := range parts {
		c.sortRun(int(p.lo), p.next)
	}
	return c
}

// place puts the chunk into s, a new version still sharing the base's
// directory and chunk list: in a slot no instance uses any more, or a new
// one, with its posting columns built and the parts' directory entries
// pointing at it. The wid list and directory are merged anew only when a
// wid is new, and the instance postings copied only where they change: the
// lists of the symbols a touched instance gains, or all of them, renumbered,
// when a new wid lands before an old one and so moves its position.
func (s *Store) place(c *chunk, parts []part, at map[uint64]int32) {
	chunks, live := s.chunks, s.live // the base's
	s.chunks, s.live = slices.Clone(chunks), slices.Clone(live)
	for _, p := range parts {
		if p.from != nil {
			if s.live[p.old.chunk] -= p.old.n; s.live[p.old.chunk] == 0 {
				s.chunks[p.old.chunk] = nil
			}
		}
	}
	for len(s.chunks) > 0 && s.chunks[len(s.chunks)-1] == nil {
		s.chunks, s.live = s.chunks[:len(s.chunks)-1], s.live[:len(s.live)-1]
	}
	slot := slices.Index(s.chunks, nil)
	if slot < 0 {
		slot = len(s.chunks)
		s.chunks, s.live = append(s.chunks, nil), append(s.live, 0)
	}
	s.chunks[slot], s.live[slot] = c, int32(len(c.lsn))
	locs := make([]loc, len(parts))
	for i, p := range parts {
		locs[i] = loc{chunk: int32(slot), lo: p.lo, n: p.recs}
	}
	c.index(locs, s.sparse)

	widList, dir := s.widList, s.dir // the base's
	var opened []uint64
	for wid, i := range at {
		if parts[i].from == nil {
			opened = append(opened, wid)
		}
	}
	var moved []int32 // the base's positions, renumbered
	if len(opened) == 0 {
		s.dir = slices.Clone(dir)
	} else {
		// Merge the opened wids into the base's list, carrying each old
		// instance's directory entry along to its new position.
		slices.Sort(opened)
		n := len(widList) + len(opened)
		s.widList, s.dir, moved = make([]uint64, 0, n), make([]loc, n), make([]int32, len(widList))
		for old := 0; len(s.widList) < n; {
			if old < len(widList) && (len(opened) == 0 || widList[old] < opened[0]) {
				moved[old] = int32(len(s.widList))
				s.dir[len(s.widList)] = dir[old]
				s.widList = append(s.widList, widList[old])
				old++
			} else {
				s.widList = append(s.widList, opened[0])
				opened = opened[1:]
			}
		}
		// The renumbering is increasing: it moves nothing when the last old
		// position stays, as when every new wid follows the old ones.
		if n := len(moved); n == 0 || moved[n-1] == int32(n-1) {
			moved = nil
		}
	}
	for wid, i := range at {
		pos, _ := s.Position(wid)
		parts[i].pos = int32(pos)
		s.dir[pos] = locs[i]
	}
	s.gain(c, parts, locs, moved)
}

// gain adds the position of each touched instance to the instance postings
// of every symbol its new records carry and its old ones did not (every
// symbol of a new instance), copying those lists; the others stay shared
// with the base. When a new wid renumbered the base's positions (moved),
// every list is copied renumbered.
func (s *Store) gain(c *chunk, parts []part, locs []loc, moved []int32) {
	each := func(f func(sym, pos int32)) {
		var buf [64]int32
		for i := range parts {
			p := &parts[i]
			if p.recs == p.old.n {
				continue // folded in unchanged
			}
			for _, sym := range locs[i].appendSyms(buf[:0], c) {
				if p.from == nil || len(p.old.postings(p.from, sym)) == 0 {
					f(sym, p.pos)
				}
			}
		}
	}
	// A counting placement: how many positions each symbol gains, then the
	// positions in one allocation, grouped by symbol.
	gains, total := make([]int, s.syms.Len()), 0
	each(func(sym, _ int32) { gains[sym]++; total++ })
	if total == 0 && moved == nil {
		return
	}
	carriers := make([][]int32, s.syms.Len())
	copy(carriers, s.carriers)
	if moved != nil {
		n := 0
		for _, old := range carriers {
			n += len(old)
		}
		flat := make([]int32, n)
		for sym, old := range carriers {
			renumbered := flat[:len(old):len(old)]
			flat = flat[len(old):]
			for k, pos := range old {
				renumbered[k] = moved[pos]
			}
			carriers[sym] = renumbered
		}
	}
	flat, added := make([]int32, total), make([][]int32, len(gains))
	for sym, n := range gains {
		added[sym], flat = flat[:0:n], flat[n:]
	}
	each(func(sym, pos int32) { added[sym] = append(added[sym], pos) })
	for sym, add := range added {
		old := carriers[sym]
		slices.Sort(add)
		switch {
		case len(add) == 0:
			continue
		case len(old) == 0:
			carriers[sym] = add
			continue
		}
		merged := make([]int32, 0, len(old)+len(add))
		i := 0
		for _, pos := range add {
			for i < len(old) && old[i] < pos {
				merged = append(merged, old[i])
				i++
			}
			merged = append(merged, pos)
		}
		carriers[sym] = append(merged, old[i:]...)
	}
	s.carriers = carriers
}

// sortRun puts records lo..hi-1 in is-lsn order, stably, when an unchecked
// log left them out of it.
func (c *chunk) sortRun(lo, hi int) {
	seqs := c.seq[lo:hi]
	if slices.IsSorted(seqs) {
		return
	}
	perm := make([]int, hi-lo)
	for i := range perm {
		perm[i] = lo + i
	}
	slices.SortStableFunc(perm, func(a, b int) int { return cmp.Compare(c.seq[a], c.seq[b]) })
	lsn, seq, act := make([]uint64, len(perm)), make([]uint64, len(perm)), make([]int32, len(perm))
	arena := make([]byte, 0, c.attr[hi]-c.attr[lo])
	attr := make([]uint32, len(perm))
	for i, k := range perm {
		lsn[i], seq[i], act[i] = c.lsn[k], c.seq[k], c.act[k]
		attr[i] = c.attr[lo] + uint32(len(arena))
		arena = append(arena, c.arena[c.attr[k]:c.attr[k+1]]...)
	}
	copy(c.lsn[lo:], lsn)
	copy(c.seq[lo:], seq)
	copy(c.act[lo:], act)
	copy(c.attr[lo:], attr)
	copy(c.arena[c.attr[lo]:], arena)
}

// index builds the posting columns of the instances at locs, which cover the
// chunk, filling in their offset rows.
func (c *chunk) index(locs []loc, sparse bool) {
	cells := 0
	for i := range locs {
		l := &locs[i]
		acts := c.act[l.lo : l.lo+l.n]
		l.rows, l.syms = slices.Max(acts)+1, -1
		if sparse || int(l.rows) > denseSlack+2*len(acts) {
			l.syms = int32(len(c.rsyms))
			c.rsyms = append(c.rsyms, acts...)
			slices.Sort(c.rsyms[l.syms:])
			l.rows = int32(len(slices.Compact(c.rsyms[l.syms:])))
			c.rsyms = c.rsyms[:l.syms+l.rows]
		}
		l.off = int32(cells)
		cells += int(l.rows) + 1
	}
	c.rsyms = slices.Clip(c.rsyms)
	c.post, c.off = make([]uint64, len(c.seq)), make([]int32, cells)
	for i := range locs {
		l := &locs[i]
		acts, post := c.act[l.lo:l.lo+l.n], c.post[l.lo:l.lo+l.n]
		off := c.off[l.off : l.off+l.rows+1]
		slot := func(sym int32) int {
			if l.syms < 0 {
				return int(sym)
			}
			j, _ := slices.BinarySearch(c.rsyms[l.syms:l.syms+l.rows], sym)
			return j
		}
		// A counting sort by symbol: count each group into the slot after
		// it, sum to group starts, place each is-lsn at its group's cursor
		// (which leaves every cursor at the next group's start), shift back.
		for _, y := range acts {
			off[slot(y)+1]++
		}
		for j := 1; j < len(off); j++ {
			off[j] += off[j-1]
		}
		for k, y := range acts {
			j := slot(y)
			post[off[j]] = c.seq[int(l.lo)+k]
			off[j]++
		}
		copy(off[1:], off)
		off[0] = 0
	}
}

// Builder builds a store from records fed one at a time, as a log file is
// read, without holding the decoded log: each record's attributes go into
// the arena as it arrives. It checks the records against Definition 2 as it
// goes, batch by batch, with wlog.Check and itself as the Tail (the checked
// prefix). The zero Builder is ready to use.
//
// The records may come in any lsn order, as a file may hold them: while
// they ascend, each batch is checked on arrival; once one does not, Finish
// checks them all again in lsn order, so a log loads, or fails with the
// first violation, exactly as the sorted log would.
type Builder struct {
	st      staging
	batch   []wlog.Record
	prevLSN uint64
	// unsorted is set once a record's lsn is not above its predecessor's;
	// bad is the first violation found (while the records ascend, final).
	unsorted bool
	bad      error
	// The checked prefix: its newest lsn, and per instance its last is-lsn
	// and whether that record is its END.
	lastLSN uint64
	tails   map[uint64]tail
}

type tail struct {
	seq   uint64
	ended bool
}

// checkBatch is how many records the builder decodes at once.
const checkBatch = 1024

var _ wlog.Tail = (*Builder)(nil)

// Add feeds one record; r is not retained.
func (b *Builder) Add(r wlog.Record) {
	if b.st.base == nil {
		b.st.base = new(Store)
	}
	if len(b.st.lsn)+len(b.batch) > 0 && r.LSN <= b.prevLSN {
		b.unsorted = true
	}
	b.prevLSN = r.LSN
	b.batch = append(b.batch, r)
	if len(b.batch) == checkBatch {
		b.flush()
	}
}

// AddLog feeds every record of a log, in lsn order.
func (b *Builder) AddLog(l *wlog.Log) {
	b.st.grow(l.Len())
	for i := range l.Len() {
		b.Add(l.Record(i))
	}
}

// flush checks the pending batch, while the records ascend and no violation
// has been found, and stages it.
func (b *Builder) flush() {
	if !b.unsorted && b.bad == nil {
		n, err := wlog.Check(b, b.batch)
		b.bad = err
		b.checked(b.batch[:n])
	}
	for _, r := range b.batch {
		b.st.add(r)
	}
	clear(b.batch)
	b.batch = b.batch[:0]
}

// checked extends the checked prefix by recs.
func (b *Builder) checked(recs []wlog.Record) {
	if b.tails == nil {
		b.tails = make(map[uint64]tail)
	}
	for _, r := range recs {
		b.tails[r.WID] = tail{seq: r.Seq, ended: r.IsEnd()}
		b.lastLSN = r.LSN
	}
}

// Finish returns the store of every record fed, and the first Definition 2
// violation among them in lsn order (nil when they form a valid log). The
// store is built either way; an instance out of is-lsn order is sorted,
// stably. The builder must not be used afterwards.
func (b *Builder) Finish() (*Store, error) {
	if b.st.base == nil {
		b.st.base = new(Store)
	}
	b.flush()
	if b.unsorted {
		b.bad = b.recheck()
	}
	if len(b.st.lsn) == 0 {
		return b.st.base, b.bad
	}
	return b.st.extend(), b.bad
}

// recheck checks the staged records in lsn order (ties in the order fed),
// decoding them a batch at a time.
func (b *Builder) recheck() error {
	order := make([]int32, len(b.st.lsn))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(x, y int32) int { return cmp.Compare(b.st.lsn[x], b.st.lsn[y]) })
	b.lastLSN, b.tails = 0, nil
	for len(order) > 0 {
		batch := b.batch[:0]
		for _, k := range order[:min(len(order), checkBatch)] {
			batch = append(batch, b.st.record(int(k)))
		}
		order = order[len(batch):]
		n, err := wlog.Check(b, batch)
		if err != nil {
			return err
		}
		b.checked(batch[:n])
	}
	return nil
}

// LastLSN is the newest lsn of the checked prefix (wlog.Tail).
func (b *Builder) LastLSN() uint64 { return b.lastLSN }

// InstanceTail is the last is-lsn of the instance in the checked prefix and
// whether that record is its END (wlog.Tail).
func (b *Builder) InstanceTail(wid uint64) (lastSeq uint64, ended bool) {
	t := b.tails[wid]
	return t.seq, t.ended
}
