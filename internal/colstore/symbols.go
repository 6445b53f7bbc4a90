// Package colstore is the columnar log backend: an immutable,
// query-optimized representation of a workflow log built once at load (or
// reload) time. Activity names are interned into dense int32 symbols,
// records live in parallel wid/is-lsn/activity columns with per-instance
// offset ranges, and every activity carries a sorted posting list so an
// atomic pattern is answered in O(log n + k) with zero allocation.
//
// The package implements eval.Source and eval.SymbolicSource; the
// cross-backend equivalence suite in this package proves its answers are
// byte-identical to the row backend's (eval.Index) for every operator,
// with and without rewriting, scanned serially and in chunks. See
// docs/STORAGE.md for the layout and its invariants.
package colstore

// SymbolTable interns activity names into dense int32 symbols. Symbols are
// assigned in first-intern order, starting at 0; the table is append-only
// and, once a Store is built, never mutated again (lookups after build are
// read-only and therefore safe for concurrent use).
type SymbolTable struct {
	names []string
	ids   map[string]int32
}

// NewSymbolTable returns an empty table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{ids: make(map[string]int32)}
}

// Intern returns the symbol for name, assigning the next dense id on first
// sight. Interning the same name twice returns the same symbol.
func (t *SymbolTable) Intern(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
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
