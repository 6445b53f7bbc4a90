// Package colstore is the one served log layout: a log is built into it
// record by record, by a Builder that checks Definition 2 as it goes, at
// load (or reload) time, and live logs grow it one version per append, copy
// on write, so readers never lock. Activity and attribute names are
// interned into dense int32 symbols, and every record lives in flat,
// pointer-free columns with its attributes in a byte arena, so the
// collector never scans the records, an atomic pattern is answered with
// zero allocation from per-instance posting lists, and a guard reads one
// attribute in place.
//
// The package implements eval.Source; the equivalence suite in this package
// holds a store built in bulk and one appended record by record to naive
// Algorithm 1 over eval.Index, for every operator, with and without
// rewriting, scanned serially and in chunks. See docs/STORAGE.md for the
// layout and its invariants.
package colstore

// SymbolTable interns names (a store has one for activities and one for
// attributes) into dense int32 symbols. Symbols are assigned in first-intern
// order, starting at 0; the zero table is empty. A store's table is never
// interned into once the store is built: a version that brings a new name
// gets a copy, so lookups are safe for concurrent use.
type SymbolTable struct {
	names []string
	ids   map[string]int32
}

// Intern returns the symbol for name, assigning the next dense id on first
// sight. Interning the same name twice returns the same symbol.
func (t *SymbolTable) Intern(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id := int32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// Resolve maps a name to its symbol; ok is false when the name was never
// interned.
func (t *SymbolTable) Resolve(name string) (int32, bool) {
	id, ok := t.ids[name]
	return id, ok
}

// Name returns the string for a symbol previously returned by Intern or
// Resolve. Panics on out-of-range symbols (a caller bug by contract).
func (t *SymbolTable) Name(sym int32) string { return t.names[sym] }

// Len returns the number of distinct interned names.
func (t *SymbolTable) Len() int { return len(t.names) }
