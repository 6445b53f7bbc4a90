package colstore

import (
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wlq/internal/core/eval"
	"wlq/internal/gen"
	"wlq/internal/logio"
	"wlq/internal/wlog"
)

func TestSymbolTableBasics(t *testing.T) {
	st := new(SymbolTable)
	a := st.Intern("A")
	b := st.Intern("B")
	if a == b {
		t.Fatalf("distinct names interned to the same symbol %d", a)
	}
	if got := st.Intern("A"); got != a {
		t.Errorf("re-intern of A = %d, want %d", got, a)
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d, want 2", st.Len())
	}
	if st.Name(a) != "A" || st.Name(b) != "B" {
		t.Errorf("Name round-trip failed: %q %q", st.Name(a), st.Name(b))
	}
	if _, ok := st.Resolve("C"); ok {
		t.Error("Resolve of never-interned name reported ok")
	}
}

func TestSymbolTableEmptyAndDuplicateNames(t *testing.T) {
	st := new(SymbolTable)
	empty := st.Intern("")
	if got := st.Intern(""); got != empty {
		t.Errorf("empty name interned twice to %d and %d", empty, got)
	}
	if st.Name(empty) != "" {
		t.Errorf("Name(empty) = %q", st.Name(empty))
	}
	// Whitespace-variant names are distinct symbols: interning does not
	// normalize — trimming is logio's job at ingest.
	sp := st.Intern(" A ")
	plain := st.Intern("A")
	if sp == plain {
		t.Error("\" A \" and \"A\" interned to the same symbol")
	}
}

// mustLog builds a small valid log with duplicate-heavy activity usage.
func mustLog(t *testing.T) *wlog.Log {
	t.Helper()
	var b wlog.Builder
	w1 := b.Start()
	w2 := b.Start()
	for _, act := range []string{"A", "B", "A", "A", "C"} {
		if err := b.Emit(w1, act, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, act := range []string{"B", "B", "A"} {
		if err := b.Emit(w2, act, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.End(w1); err != nil {
		t.Fatal(err)
	}
	if err := b.End(w2); err != nil {
		t.Fatal(err)
	}
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestStoreMatchesRowIndex(t *testing.T) {
	logs := map[string]*wlog.Log{
		"handmade": mustLog(t),
		"random": gen.MustRandomLog(gen.LogParams{
			Instances: 37, MeanLength: 24, Skew: 1.1, CompleteFraction: 0.7, Seed: 7,
		}),
	}
	for name, l := range logs {
		t.Run(name, func(t *testing.T) {
			ix := eval.NewIndex(l)
			cs := Build(l)
			assertSourcesAgree(t, ix, cs, l)
		})
	}
}

// assertSourcesAgree checks every Source method answer of cs against the
// row index ix, including probes for absent wids and activities.
func assertSourcesAgree(t *testing.T, ix *eval.Index, cs *Store, l *wlog.Log) {
	t.Helper()
	if !reflect.DeepEqual(ix.WIDs(), cs.WIDs()) {
		t.Fatalf("WIDs: row %v, columnar %v", ix.WIDs(), cs.WIDs())
	}
	if ix.TotalRecords() != cs.TotalRecords() {
		t.Errorf("TotalRecords: row %d, columnar %d", ix.TotalRecords(), cs.TotalRecords())
	}
	if !reflect.DeepEqual(ix.Activities(), cs.Activities()) {
		t.Errorf("Activities: row %v, columnar %v", ix.Activities(), cs.Activities())
	}
	acts := append(ix.Activities(), "no-such-activity", "")
	for _, act := range acts {
		if rc, cc := ix.ActivityCount(act), cs.ActivityCount(act); rc != cc {
			t.Errorf("ActivityCount(%q): row %d, columnar %d", act, rc, cc)
		}
	}
	probeWIDs := append(append([]uint64{}, ix.WIDs()...), 0, 1<<40) // absent wids included
	for _, wid := range probeWIDs {
		rp, rok := ix.Position(wid)
		cp, cok := cs.Position(wid)
		if rok != cok || rok && rp != cp {
			t.Errorf("Position(%d): row %d, %v; columnar %d, %v", wid, rp, rok, cp, cok)
		}
		ri, ci := ix.Instance(wid), cs.Instance(wid)
		if rok && cok {
			if rr, cr := ix.Row(rp), cs.Row(cp); rr.Len() != len(ri) || cr.Len() != len(ri) {
				t.Errorf("Row(%d).Len(): row %d, columnar %d; the instance has %d records", rp, rr.Len(), cr.Len(), len(ri))
			}
		}
		if len(ri) != len(ci) {
			t.Fatalf("Instance(%d): row %d records, columnar %d", wid, len(ri), len(ci))
		}
		for k := range ri {
			if !ri[k].Equal(ci[k]) {
				t.Errorf("Instance(%d)[%d]: row %v, columnar %v", wid, k, ri[k], ci[k])
			}
		}
		for seq := uint64(0); seq <= uint64(len(ri))+2; seq++ {
			rr, rok := ix.Record(wid, seq)
			cr, cok := cs.Record(wid, seq)
			if rok != cok || (rok && !rr.Equal(cr)) {
				t.Errorf("Record(%d,%d): row (%v,%v), columnar (%v,%v)", wid, seq, rr, rok, cr, cok)
			}
		}
		// Each row's posting list of an activity is the is-lsns of the
		// instance's records carrying it, read off the decoded records.
		for _, act := range acts {
			var want []uint64
			for _, r := range ri {
				if r.Activity == act {
					want = append(want, r.Seq)
				}
			}
			if rs, css := seqsOf(ix, wid, act), seqsOf(cs, wid, act); !slices.Equal(rs, want) || !slices.Equal(css, want) {
				t.Errorf("postings(%d,%q): row %v, columnar %v; the records say %v", wid, act, rs, css, want)
			}
		}
	}
	for _, act := range ix.Activities() {
		rs, _ := ix.ResolveActivity(act)
		cs2, _ := cs.ResolveActivity(act)
		if r, c := ix.InstancesWith(rs), cs.InstancesWith(cs2); !slices.Equal(r, c) {
			t.Errorf("InstancesWith(%q): row %v, columnar %v", act, r, c)
		}
	}
	assertInstancePostings(t, cs)
	// The watermarks the result cache reads, against the log itself.
	last := make(map[string]uint64)
	for _, r := range l.Records() {
		last[r.Activity] = max(last[r.Activity], r.LSN)
	}
	if n := l.Len(); n > 0 && cs.LastLSN() != l.Record(n-1).LSN {
		t.Errorf("LastLSN = %d, log ends at %d", cs.LastLSN(), l.Record(n-1).LSN)
	}
	for _, act := range acts {
		if got := cs.ActivityLastLSN(act); got != last[act] {
			t.Errorf("ActivityLastLSN(%q) = %d, want %d", act, got, last[act])
		}
	}
}

// seqsOf is the source's posting list of the activity in the instance,
// read from the instance's row.
func seqsOf(src eval.Source, wid uint64, act string) []uint64 {
	sym, ok := src.ResolveActivity(act)
	pos, in := src.Position(wid)
	if !ok || !in {
		return nil
	}
	row := src.Row(pos)
	return row.Postings(sym)
}

// assertInstancePostings holds the store's instance postings, per symbol,
// to a linear scan of its directory: the positions of the instances whose
// decoded records carry the activity, ascending.
func assertInstancePostings(t *testing.T, cs *Store) {
	t.Helper()
	want := make(map[string][]int32)
	for pos, wid := range cs.WIDs() {
		seen := make(map[string]bool)
		for _, r := range cs.Instance(wid) {
			if !seen[r.Activity] {
				seen[r.Activity] = true
				want[r.Activity] = append(want[r.Activity], int32(pos))
			}
		}
	}
	for _, act := range cs.Activities() {
		sym, _ := cs.ResolveActivity(act)
		if got := cs.InstancesWith(sym); !slices.Equal(got, want[act]) {
			t.Errorf("InstancesWith(%q) = %v, a scan of the directory finds %v", act, got, want[act])
		}
	}
	if got := cs.InstancesWith(int32(len(cs.Activities()))); got != nil {
		t.Errorf("InstancesWith of an out-of-range symbol = %v, want nil", got)
	}
}

func TestSymbolicLookups(t *testing.T) {
	cs := Build(mustLog(t))
	sym, ok := cs.ResolveActivity("A")
	if !ok {
		t.Fatal("ResolveActivity(A) not found")
	}
	pos, ok := cs.Position(1)
	if !ok {
		t.Fatal("Position(1) not found")
	}
	row := cs.Row(pos)
	if got := row.Postings(sym); !reflect.DeepEqual(got, []uint64{2, 4, 5}) {
		t.Errorf("Row(1).Postings(A) = %v, want [2 4 5]", got)
	}
	if _, ok := cs.Position(999); ok {
		t.Error("Position found an absent wid")
	}
	if got := row.Postings(-1); got != nil {
		t.Errorf("Postings on negative symbol = %v, want nil", got)
	}
	if got := row.Postings(int32(len(cs.Activities()))); got != nil {
		t.Errorf("Postings on out-of-range symbol = %v, want nil", got)
	}
	if got := cs.InstancesWith(sym); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Errorf("InstancesWith(A) = %v, want [0 1]", got)
	}
	if got := cs.InstancesWith(-1); got != nil {
		t.Errorf("InstancesWith on negative symbol = %v, want nil", got)
	}
	if _, ok := cs.ResolveActivity("Z"); ok {
		t.Error("ResolveActivity of absent activity reported ok")
	}
}

const storeCSV = `case,activity,when
o-1,Pay,2017-01-02T10:00:00Z
o-2,Pack,2017-01-02T09:00:00Z
o-1,Ship,2017-01-03T08:00:00Z
o-2,Ship,2017-01-02T11:00:00Z
o-2,Pay,2017-01-04T12:00:00Z
`

const storeXES = `<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="o-1"/>
    <event><string key="concept:name" value="Pay"/></event>
    <event><string key="concept:name" value=" Ship "/></event>
  </trace>
  <trace>
    <string key="concept:name" value="o-2"/>
    <event><string key="concept:name" value="Pack"/></event>
    <event><string key="concept:name" value="Ship"/></event>
  </trace>
</log>
`

func TestStoreOverImportedLogs(t *testing.T) {
	csvLog, err := logio.ImportCSV(strings.NewReader(storeCSV), logio.CSVOptions{TimeColumn: "when"})
	if err != nil {
		t.Fatal(err)
	}
	xesLog, err := logio.ImportXES(strings.NewReader(storeXES), logio.XESOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]*wlog.Log{"csv": csvLog, "xes": xesLog} {
		t.Run(name, func(t *testing.T) {
			assertSourcesAgree(t, eval.NewIndex(l), Build(l), l)
		})
	}
	// The XES importer trims concept:name whitespace at ingest, so " Ship "
	// and "Ship" share one symbol across both backends.
	cs := Build(xesLog)
	if got := cs.ActivityCount("Ship"); got != 2 {
		t.Errorf("ActivityCount(Ship) over XES log = %d, want 2 (trimmed at ingest)", got)
	}
	if _, ok := cs.ResolveActivity(" Ship "); ok {
		t.Error("untrimmed activity name survived XES ingest into the symbol table")
	}
}

// TestSparsePostingLayout forces the binary-search layout on every instance
// and requires answers identical to the dense layout and the row index; and
// over a huge alphabet, the instances whose symbols outrun their records
// must choose the sparse layout themselves.
func TestSparsePostingLayout(t *testing.T) {
	l := gen.MustRandomLog(gen.LogParams{Instances: 30, MeanLength: 25, Skew: 1.0, Seed: 13})
	sparse := (&Store{sparse: true}).Append(l.Records()...)
	for _, in := range sparse.dir {
		if in.syms < 0 {
			t.Fatal("dense row built in a store forced sparse")
		}
	}
	assertSourcesAgree(t, eval.NewIndex(l), sparse, l)
	dense := Build(l)
	for _, wid := range dense.WIDs() {
		for _, act := range dense.Activities() {
			if !slices.Equal(seqsOf(dense, wid, act), seqsOf(sparse, wid, act)) {
				t.Fatalf("layouts disagree on the postings of (%d, %q)", wid, act)
			}
		}
	}

	wide := gen.MustRandomLog(gen.LogParams{Instances: 40, MeanLength: 3, Alphabet: gen.Alphabet(400), Seed: 17})
	cs := Build(wide)
	chose := 0
	for _, in := range cs.dir {
		if in.syms >= 0 {
			row := cs.chunks[in.chunk].rsyms[in.syms : in.syms+in.rows]
			if top := int(slices.Max(row)); top < denseSlack+2*int(in.n) {
				t.Fatalf("sparse row for an instance of %d records whose largest symbol is %d", in.n, top)
			}
			chose++
		} else if int(in.rows)+1 > denseSlack+2*int(in.n)+1 {
			t.Fatalf("dense row of %d offsets for an instance of %d records", in.rows+1, in.n)
		}
	}
	if chose == 0 {
		t.Fatal("no instance of a 400-activity log chose the sparse layout")
	}
	assertSourcesAgree(t, eval.NewIndex(wide), cs, wide)
}

// TestAppendFoldsChunks: a store grown one record at a time, as a live log
// is, keeps O(log n) chunks (small ones are folded into the next), and still
// answers as the row index.
func TestAppendFoldsChunks(t *testing.T) {
	l := gen.MustRandomLog(gen.LogParams{Instances: 60, MeanLength: 20, CompleteFraction: 0.5, Seed: 3})
	st := new(Store)
	for _, r := range l.Records() {
		st = st.Append(r)
	}
	used := 0
	for _, c := range st.chunks {
		if c != nil {
			used++
		}
	}
	if bound := 2*bits.Len(uint(l.Len())) + 2; used > bound || len(st.chunks) > bound {
		t.Fatalf("%d records appended one at a time left %d chunks in %d slots, want at most %d", l.Len(), used, len(st.chunks), bound)
	}
	t.Logf("%d records appended one at a time: %d chunks in %d slots", l.Len(), used, len(st.chunks))
	assertSourcesAgree(t, eval.NewIndex(l), st, l)
}

// TestInstancePostingsAcrossAppends: an append copies the instance
// postings of exactly the symbols a touched or new instance gains and
// shares the rest with the version it extends, as long as every new wid
// follows the old ones; one that opens a wid before or between them moves
// positions and copies every list renumbered. No append changes a list an
// older version handed out.
func TestInstancePostingsAcrossAppends(t *testing.T) {
	rec := func(lsn, wid, seq uint64, act string) wlog.Record {
		return wlog.Record{LSN: lsn, WID: wid, Seq: seq, Activity: act}
	}
	base := new(Store).Append(rec(1, 2, 1, "A"), rec(2, 4, 1, "A"), rec(3, 4, 2, "B"))
	postings := func(s *Store, act string) []int32 {
		sym, ok := s.ResolveActivity(act)
		if !ok {
			return nil
		}
		return s.InstancesWith(sym)
	}
	baseA, baseB := postings(base, "A"), postings(base, "B")
	if !slices.Equal(baseA, []int32{0, 1}) || !slices.Equal(baseB, []int32{1}) {
		t.Fatalf("base: A at %v, B at %v; want [0 1] and [1]", baseA, baseB)
	}
	// wid 2 gains B, wid 4 another A, and wid 4 a new activity C.
	gained := base.Append(rec(4, 2, 2, "B"), rec(5, 4, 3, "A"), rec(6, 4, 4, "C"))
	if got := postings(gained, "B"); !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("after wid 2 gained B: B at %v, want [0 1]", got)
	}
	if got := postings(gained, "C"); !slices.Equal(got, []int32{1}) {
		t.Errorf("after wid 4 gained C: C at %v, want [1]", got)
	}
	if got := postings(gained, "A"); &got[0] != &baseA[0] {
		t.Error("A, which no touched instance gained, was copied")
	}
	assertInstancePostings(t, gained)
	after := gained.Append(rec(7, 9, 1, "C"))
	if got := postings(after, "C"); !slices.Equal(got, []int32{1, 2}) {
		t.Errorf("after wid 9 opened: C at %v, want [1 2]", got)
	}
	if got := postings(after, "A"); &got[0] != &baseA[0] {
		t.Error("A was copied when a wid opened after the others")
	}
	assertInstancePostings(t, after)
	// wids 1, 3 and 5 open before, between and after 2 and 4.
	opened := gained.Append(rec(7, 3, 1, "C"), rec(8, 1, 1, "B"), rec(9, 5, 1, "A"))
	for act, want := range map[string][]int32{"A": {1, 3, 4}, "B": {0, 1, 3}, "C": {2, 3}} {
		if got := postings(opened, act); !slices.Equal(got, want) {
			t.Errorf("after wids 1, 3, 5 opened: %s at %v, want %v", act, got, want)
		}
	}
	assertInstancePostings(t, opened)
	if !slices.Equal(postings(base, "A"), []int32{0, 1}) || !slices.Equal(postings(base, "B"), []int32{1}) || postings(base, "C") != nil {
		t.Errorf("the base version changed: A at %v, B at %v", postings(base, "A"), postings(base, "B"))
	}
}
