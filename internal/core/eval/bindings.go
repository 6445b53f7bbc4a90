package eval

import (
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
)

// Bindings explains an incident: which atomic pattern matched which record.
// It returns, for each atom of p in left-to-right order, the is-lsn of the
// record it matched — atoms on choice branches the incident did not take
// are absent from the map. ok is false when o is not an incident of p.
//
// It runs Verify's Definition 4 search (a witnessing decomposition is
// found, not all of them); when several decompositions exist — e.g. t ⊕ t
// over two t-records — one is returned deterministically (the search
// prefers earlier records on left operands).
func (e *Evaluator) Bindings(p pattern.Node, o incident.Incident) (map[int]uint64, bool) {
	w := make([]uint64, pattern.Operators(p)+1)
	if !e.witness(p, o.WID(), o.Seqs(), w) {
		return nil, false
	}
	m := make(map[int]uint64, len(w))
	for i, seq := range w {
		if seq != 0 {
			m[i] = seq
		}
	}
	return m, true
}
